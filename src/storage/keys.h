// LocalStore key layouts for the versioned storage roles one node plays
// simultaneously (Fig. 3): data storage node, index node, and relation
// coordinator, plus the two families this system adds: epoch claims and
// catalog entries. The paper's inverse node (partition -> latest page) has
// no records: a publisher finds a partition's current page in the base
// epoch's coordinator record. Layouts are prefix-free across namespaces and
// relations, and ordered so that:
//   * data records of a relation sort by (tuple-key hash, key, epoch), so a
//     key's versions are adjacent (GC's version groups) and a hash range is
//     a key range (re-replication buckets). A scan does not walk them: it
//     reads each tuple version by the key its page entry names, where §V-B
//     makes "a single pass through the hash ID range for that page";
//   * page/coordinator records sort by epoch for debugging scans.
// One parser, Parse(), reads a key of any family back into its fields.
#ifndef ORCHESTRA_STORAGE_KEYS_H_
#define ORCHESTRA_STORAGE_KEYS_H_

#include <string>
#include <string_view>

#include "hash/hash_id.h"
#include "storage/page.h"

namespace orchestra::storage::keys {

// Namespace tag bytes — the first byte of every stored key. These constants,
// the builders and Parse() below are the ONE codec for stored-key bytes;
// dispatching on a raw character literal or slicing key bytes by hand
// anywhere else is a codec-unity lint violation
// (docs/STATIC_ANALYSIS.md#codec-rawkey).
inline constexpr char kDataTag = 'D';
inline constexpr char kPageTag = 'P';
inline constexpr char kCoordTag = 'C';
inline constexpr char kCatalogTag = 'M';
inline constexpr char kClaimTag = 'E';

/// One-byte seek prefix for a whole namespace (e.g. the GC sweeps).
inline std::string TagPrefix(char tag) { return std::string(1, tag); }

/// Varint-length-prefixed string: makes multi-part keys prefix-free.
void AppendLenPrefixed(std::string* out, std::string_view s);
void AppendEpochBE(std::string* out, Epoch e);

/// Data record: 'D' <rel> <hash:20B BE> <key_bytes:len-prefixed> <epoch:8B BE>
std::string Data(std::string_view relation, const HashId& hash,
                 std::string_view key_bytes, Epoch epoch);
/// Same layout, with the hash already encoded (HashId::EncodeTo), as
/// kPutTuples and page entries carry it; splices without a HashId decode.
std::string DataRaw(std::string_view relation, std::string_view hash_be20,
                    std::string_view key_bytes, Epoch epoch);
/// Prefix of all data records of a relation.
std::string DataPrefix(std::string_view relation);

/// Index-node page record: 'P' <rel> <partition:4B BE> <epoch:8B BE>
std::string PageRec(std::string_view relation, Epoch epoch, uint32_t partition);

/// Relation-coordinator record: 'C' <rel> <epoch:8B BE>
std::string Coord(std::string_view relation, Epoch epoch);

/// Catalog entry: 'M' <rel>
std::string Catalog(std::string_view relation);

/// Epoch-claim record: 'E' <epoch:8B BE>  ->  (participant, node) of the
/// writer that owns the epoch. Replicated at ClaimHash(epoch); the claim is
/// the pre-write serialization point of multi-writer publishing (kClaimEpoch)
/// and is retired by GC like coordinator records once below the watermark.
std::string EpochClaim(Epoch epoch);

/// Fields of a stored key. Each family fills its own and leaves the rest
/// empty or zero; the views alias the parsed key.
///   D  relation, hash_be20, key_bytes, epoch
///   P  relation, partition, epoch
///   C  relation, epoch
///   E  epoch
///   M  relation
struct ParsedKey {
  char tag = '\0';
  std::string_view relation;
  std::string_view hash_be20;
  std::string_view key_bytes;
  uint32_t partition = 0;
  Epoch epoch = 0;
};
/// Parses a key of any of the five families. False for an unknown tag, a
/// truncated key or trailing bytes.
bool Parse(std::string_view key, ParsedKey* out);

/// Version-group prefix of a data or page key: the key minus its trailing
/// 8-byte big-endian epoch. Keys of one group differ only in epoch and sort
/// oldest-first, which is what the GC retirement pass walks. Returns an
/// empty view for keys too short to carry an epoch suffix.
std::string_view VersionGroupPrefix(std::string_view key);

}  // namespace orchestra::storage::keys

#endif  // ORCHESTRA_STORAGE_KEYS_H_
