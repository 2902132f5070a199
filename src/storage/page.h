// The versioned page scheme of §IV (Fig. 3): relations are divided into
// pages, each covering a fixed partition of the tuple-key-hash space. A page
// version lists the TupleIds present in that partition at the epoch it was
// last modified. Coordinator records tie an epoch to its page versions;
// unchanged pages are shared across epochs (copy-on-write, as in CFS/
// log-structured filesystems).
#ifndef ORCHESTRA_STORAGE_PAGE_H_
#define ORCHESTRA_STORAGE_PAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "hash/hash_id.h"
#include "storage/schema.h"

namespace orchestra::storage {

/// Epoch: the global logical timestamp; advances after each published batch.
using Epoch = uint64_t;

/// Participant identity: one per collaborating writer (§II — participants
/// publish disjoint update logs). Epoch claims and coordinator records are
/// tagged with the publishing participant so concurrent publishers can
/// detect same-epoch contention deterministically; 0 means "unset" and is
/// never a valid published identity (Publisher defaults to node id + 1).
using ParticipantId = uint32_t;

/// "The Tuple ID is the key attribute of a tuple and the epoch in which it
/// was last modified" (§IV). key_bytes is the order-preserving encoding of
/// the key attributes; the tuple's hash key is derived from it.
struct TupleId {
  std::string key_bytes;
  Epoch epoch = 0;

  bool operator==(const TupleId&) const = default;
};

/// Hash key of a tuple: SHA-1 over its key bytes (relation-independent, so
/// that a relation partitioned on its key is already co-partitioned with any
/// rehash on equal join values — the paper's Fig. 6 plan rehashes R but not
/// S). Determines the data storage node (Fig. 3).
HashId TupleKeyHash(std::string_view key_bytes);

/// Placement hash of a tuple under its relation's partitioning rule: hashes
/// only the placement prefix of the key bytes (RelationDef::
/// partition_key_arity). With the default (all key attributes) this equals
/// TupleKeyHash(key_bytes).
HashId PlacementHash(const RelationDef& def, std::string_view key_bytes);

/// Number of TupleKeyHash (SHA-1 tuple-hash) invocations since process
/// start. The publish pipeline computes each tuple's placement hash exactly
/// once and ships it with the tuple/page wire formats; tests assert the
/// invariant via deltas of this counter.
uint64_t TupleKeyHashCount();

/// Hash location of the relation coordinator for (relation, epoch).
HashId CoordinatorHash(const std::string& relation, Epoch epoch);

/// Hash location of the epoch-claim record for `epoch` — the single
/// serialization point concurrent publishers race through before writing
/// anything at that epoch (kClaimEpoch). Distinct from every relation's
/// CoordinatorHash so claim traffic spreads independently.
HashId ClaimHash(Epoch epoch);

/// The partition boundaries: partition i of P covers
/// [W*i, W*(i+1)) with W = floor(2^160 / P); the last partition absorbs the
/// remainder up to 2^160.
HashId PartitionBegin(uint32_t partition, uint32_t num_partitions);
/// End of partition (2^160 wraps to 0 for the last).
HashId PartitionEnd(uint32_t partition, uint32_t num_partitions);
/// Which partition a hash falls in.
uint32_t PartitionIndexFor(const HashId& h, uint32_t num_partitions);
/// The page's home = midpoint of its range; placing the index entry there
/// co-locates it with the bulk of its tuples (§IV).
HashId PartitionHome(uint32_t partition, uint32_t num_partitions);

/// "The index page ID consists of the relation name, the epoch in which it
/// was last modified, and a unique identifier for that relation and epoch"
/// (our unique id is the partition index) "... and the hash ID where the
/// index page is stored" (derivable via PartitionHome).
struct PageId {
  std::string relation;
  Epoch epoch = 0;       // epoch the page was last modified
  uint32_t partition = 0;

  bool operator==(const PageId&) const = default;
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, PageId* out);
  std::string ToString() const;
};

/// Entry in a coordinator record: page id + its tuple-ID hash range.
struct PageDescriptor {
  PageId id;
  uint32_t num_partitions = 0;  // of the relation, to derive ranges

  HashId range_begin() const { return PartitionBegin(id.partition, num_partitions); }
  HashId range_end() const { return PartitionEnd(id.partition, num_partitions); }
  HashId home() const { return PartitionHome(id.partition, num_partitions); }

  bool operator==(const PageDescriptor&) const = default;
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, PageDescriptor* out);
};

/// A page entry: a TupleId and its placement hash, computed once at publish
/// time and carried wherever the entry goes, so index nodes and scans never
/// recompute SHA-1 per tuple. Encoded as `string key_bytes | varint64 epoch
/// | hash` (HashId::EncodeTo) in a stored page, a kQueryFetch frame and a
/// kGetTuple request alike; WriteEntry and EntryReader are the only code
/// that knows the layout. An EntryView is one entry read in place: views
/// into the bytes it was read from.
struct EntryView {
  std::string_view key;    // TupleId::key_bytes
  Epoch epoch = 0;         // TupleId::epoch
  std::string_view hash;   // the placement hash, encoded
  std::string_view bytes;  // the whole entry, encoded: copy it to pass it on

  /// The placement hash, decoded.
  HashId placement() const;
};

/// The one writer of a page entry.
void WriteEntry(Writer* w, std::string_view key, Epoch epoch, const HashId& hash);

/// The one reader of page entries: yields each entry of a run of them in
/// place. A reader that fails to open, meets a truncated entry or finds
/// bytes past the last entry stops with status() Corruption.
class EntryReader {
 public:
  /// Reads `count` entries from `bytes`, which they must fill.
  EntryReader(std::string_view bytes, uint64_t count);
  /// Reads an entry count at `r`'s position, then that many entries from
  /// the rest of `r`'s input, which they must fill. A count the input
  /// cannot hold is Corruption.
  static EntryReader List(Reader* r);
  /// Reads a stored page: its header, which must name `page`, then its
  /// entry list.
  static EntryReader OfPage(std::string_view bytes, const PageDescriptor& page);

  /// Reads the next entry into `out`; false once every entry is read or
  /// the reader stopped.
  bool Next(EntryView* out);
  const Status& status() const { return status_; }
  /// Entries not yet read.
  uint64_t left() const { return left_; }
  /// Bytes not yet read.
  std::string_view rest() const {
    return std::string_view(p_, static_cast<size_t>(end_ - p_));
  }

 private:
  explicit EntryReader(Status failed) : status_(std::move(failed)) {}

  const char* p_ = nullptr;
  const char* end_ = nullptr;
  uint64_t left_ = 0;
  Status status_;
};

/// A page version decoded: the TupleIds in this partition at this epoch,
/// sorted by (hash, key_bytes). `hashes[i]` is the placement hash of
/// `ids[i]`. Storage and the scan walk a page's encoded entries in place
/// (EntryReader); this form is what tests build and compare.
struct Page {
  PageDescriptor desc;
  std::vector<TupleId> ids;
  std::vector<HashId> hashes;  // parallel to ids

  void EncodeTo(Writer* w) const;
  /// The entries must end `r`'s input.
  static Status DecodeFrom(Reader* r, Page* out);
};

/// One change a publish makes to a page: a tuple's key bytes and placement
/// hash, and whether the key is deleted (otherwise it becomes live at the
/// new version's epoch).
struct PageEdit {
  std::string_view key;
  HashId hash;
  bool erase = false;

  bool operator==(const PageEdit&) const = default;
};

/// Body of kPutPage: the page version to store, the version it is built
/// from, and the edits between the two. The index replica builds the new
/// version from its stored base (MergePage); the publisher never reads or
/// merges a page.
struct PageDelta {
  PageDescriptor page;          // the new version
  std::optional<PageId> base;   // none: the partition had no page yet
  std::vector<PageEdit> edits;  // strictly ascending (hash, key)

  bool operator==(const PageDelta&) const = default;
  void EncodeTo(Writer* w) const;
  /// Corruption for a delta that is not canonical: edits out of order or
  /// naming a key twice, an edit hash outside the page's partition, or a
  /// base of another relation or partition or not older than the page. The
  /// edits' keys are views into the reader's input.
  static Status DecodeFrom(Reader* r, PageDelta* out);
};

/// A page's next version, as the index replica builds it.
struct PageMerge {
  std::string splice;    // localstore::Splice encoding over the base's bytes
  uint64_t entries = 0;  // in the new version
};

/// The one page merge (§IV copy-on-write), on encoded bytes: `base` is the
/// stored page `delta.base` names (empty without one). One walk over the
/// base's entries yields the new version as a splice of the base: the new
/// header and every written entry literal, each unchanged run of entries a
/// copy. A live edit takes the new version's epoch; an erase drops its key.
/// Corruption when `base` is not that page's well-formed encoding.
Result<PageMerge> MergePage(std::string_view base, const PageDelta& delta);

/// One claim attempt: (participant, node, nonce). Encoded alone it is the
/// reply body of claim refusals (kEpochTaken/kFenced from kClaimEpoch) and
/// of fence grants (kFenceEpoch), naming the stored or fenced instance.
struct ClaimInstance {
  ParticipantId participant = 0;
  uint32_t node = 0;
  uint64_t nonce = 0;

  bool operator==(const ClaimInstance&) const = default;
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, ClaimInstance* out);
};

/// Request body of kClaimEpoch (including the owner's heartbeat re-claim)
/// and kConfirmEpoch: the epoch, then the claimant instance.
struct ClaimRequest {
  Epoch epoch = 0;
  ClaimInstance claimant;

  bool operator==(const ClaimRequest&) const = default;
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, ClaimRequest* out);
};

/// Body of kReleaseEpoch and kPurgeEpoch, and one entry of the kReplicaPush
/// burned-epoch table: an epoch and the instance-exact (participant, nonce)
/// the release or burn applies to. Carries no node.
struct EpochInstance {
  Epoch epoch = 0;
  ParticipantId participant = 0;
  uint64_t nonce = 0;

  bool operator==(const EpochInstance&) const = default;
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, EpochInstance* out);
};

/// Request body of kFenceEpoch: the contested epoch, the fencing
/// participant (audit trail), the stalled owner being retired, and the
/// staleness TTL the claim replicas check.
struct FenceRequest {
  Epoch epoch = 0;
  ParticipantId fencer = 0;
  ParticipantId fenced = 0;
  uint64_t ttl_us = 0;

  bool operator==(const FenceRequest&) const = default;
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, FenceRequest* out);
};

/// Value of an epoch-claim record ('E' keys, see keys::EpochClaim): which
/// participant owns the epoch, from which node and claim attempt (`nonce` —
/// releases and idempotent re-grants are instance-exact), and whether the
/// epoch's commit completed (`committed` — flipped by kConfirmEpoch; only
/// confirmed epochs are reported by discovery). One codec for every site
/// that touches claim bytes: the claim handlers, release, confirm, replica-
/// push merge, restart rebuild, and the publisher's commit probe.
struct EpochClaimRecord {
  ParticipantId participant = 0;
  uint32_t node = 0;
  bool committed = false;
  uint64_t nonce = 0;
  // Fenced = the epoch is BURNED: no participant (including the original
  // owner) may ever claim or confirm at this epoch again through this
  // replica — contenders skip past it. The participant/node/nonce fields
  // keep naming the fenced instance so late zombie writes are refused
  // instance-exactly. committed and fenced are mutually exclusive for all
  // time on one replica (kFenceEpoch refuses committed claims; confirm
  // refuses fenced epochs) — and when a fence round only PARTIALLY granted,
  // a replica-pushed committed record overrides a fenced one (the commit is
  // a fact the burn promise must yield to).
  bool fenced = false;
  // Purged = the fence reached unanimity: every claim replica granted, so
  // the epoch can never be observed committed and the fencer broadcast the
  // orphan purge. Only purged burns carry purge authority (restart rebuild
  // and replica pushes purge from them); a fenced-but-unpurged record is a
  // burn PROMISE from a possibly-partial fence round and must never delete
  // data. Meaningless unless fenced.
  bool purged = false;

  ClaimInstance instance() const { return {participant, node, nonce}; }

  bool operator==(const EpochClaimRecord&) const = default;
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, EpochClaimRecord* out);
};

/// Reply body of kGetEpochClaim. The claim replica holds a probe while the
/// epoch is claimed or burn-promised and answers it once that changes or
/// its hold bound passes; `waited` says whether it was held. `rank` is the
/// probe's place among the probes one change answered, in their arrival
/// order (0 when answered alone). `claim` is the stored record, all zero
/// when the slot is empty.
struct ClaimProbeAnswer {
  enum class Outcome : uint8_t {
    kConfirmed = 0,  // the epoch committed
    kEmpty = 1,      // nobody holds the slot (released, never claimed)
    kBurned = 2,     // the epoch is burned: fenced and purged
    kPromised = 3,   // a fence round promised the burn while the probe waited
    kHeld = 4,       // the hold bound passed; the slot is still held
  };
  Outcome outcome = Outcome::kEmpty;
  bool waited = false;
  uint32_t rank = 0;
  EpochClaimRecord claim;

  bool operator==(const ClaimProbeAnswer&) const = default;
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, ClaimProbeAnswer* out);
};

/// "Relation @epoch -> list of pages' IDs & tuple ID hash ranges" (Fig. 3).
/// Every partition a publish has touched carries a descriptor, even when its
/// newest version is empty. `participant` tags the
/// epoch's writer: storage nodes refuse a conflicting same-epoch record from
/// a different participant with kEpochTaken (first committed writer wins),
/// which is the authoritative commit-time gate of multi-writer publishing.
///
/// One codec serves the stored record, kPutCoordinator, the kGetCoordinator
/// reply, replica pushes and kPlan's scan bindings: `string relation |
/// varint64 epoch | varint32 participant | varint32 num_partitions |
/// varint64 n | n x (varint32 partition | varint64 page_epoch)`. Every page
/// names the record's relation and partition count (0 when there is no
/// page), in ascending partition order; the encoder checks that, and the
/// decoder refuses a partition at or above the count or out of order.
struct CoordinatorRecord {
  std::string relation;
  Epoch epoch = 0;
  ParticipantId participant = 0;
  std::vector<PageDescriptor> pages;

  bool operator==(const CoordinatorRecord&) const = default;
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, CoordinatorRecord* out);
};

}  // namespace orchestra::storage

#endif  // ORCHESTRA_STORAGE_PAGE_H_
