// Segmented write-ahead log with checkpointed recovery. The paper's
// prototype delegated durability to BerkeleyDB (§VI); this is our
// from-scratch equivalent of its write-ahead logging layer, shaped so that
// restart cost scales with the post-checkpoint tail rather than store size.
//
//   * Records are framed [len u32le][crc32 u32le][type u8][payload] and
//     appended to the active segment. Segments seal at a size target and are
//     immutable afterwards; segment ids are monotonic and encode the replay
//     order in the file name (wal-<id>.seg).
//   * A checkpoint seals the active segment, streams a dense snapshot of the
//     live state into MANIFEST.tmp (same record framing: one header naming
//     the first live segment, then one kPut frame per live entry, sorted),
//     syncs it, and atomically renames it to MANIFEST. Sealed segments below
//     the first-live watermark are then retired (deleted) — the reclaimed
//     space never reappears in any accounting.
//   * Recover() loads the newest MANIFEST (if any) and replays only the
//     segments at-or-past its first-live watermark, in id order. A torn tail
//     (incomplete frame or CRC mismatch, the residue of a crash with
//     unsynced bytes) stops replay of that segment at the last whole record
//     and truncates the file there — deterministically, so two recoveries of
//     the same bytes agree. Replay goes on into later segments, where a
//     derived put can name a base the torn segment lost: the store then
//     drops that record, and Recover counts it.
//
// Determinism contract: the WAL reads no clocks and draws no randomness; all
// state is a pure function of the append/checkpoint call sequence and the
// backend's bytes. The simulator runs it on wal::MemoryBackend, whose
// Crash() tears unsynced tails reproducibly.
//
// Format details and the recovery protocol are documented in
// docs/DURABILITY.md.
#ifndef ORCHESTRA_WAL_WAL_H_
#define ORCHESTRA_WAL_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "wal/backend.h"

namespace orchestra::wal {

enum class RecordType : uint8_t {
  kPut = 1,     // payload: varint32 key_len, key bytes, value = rest
  kDelete = 2,  // payload: varint32 key_len, key bytes
  kManifestHeader = 3,  // payload: varint64 first_live_segment
  // Payload as kPut, but the value is a derivation the store materializes
  // against another key's value at this point of the log (LocalStore::
  // PutDerived); the WAL does not interpret it.
  kDerivedPut = 4,
};

struct WalOptions {
  /// Seal the active segment once it reaches this many bytes.
  uint64_t segment_target_bytes = 256 * 1024;
  /// Sync the active segment after every Nth append (1 = every record, the
  /// lose-nothing default; 0 = only on seal/checkpoint/explicit Sync, which
  /// leaves a crashable tail — what the churn harness uses to exercise torn
  /// tails).
  uint64_t sync_every_records = 1;
};

struct WalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t syncs = 0;
  uint64_t segments_sealed = 0;
  uint64_t segments_retired = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_failures = 0;  // injected publish failures (tests)
  uint64_t recoveries = 0;
  uint64_t snapshot_records = 0;  // manifest entries loaded across recoveries
  uint64_t replayed_records = 0;  // tail records replayed across recoveries
  uint64_t dropped_records = 0;   // replayed records the store could not
                                  // apply: derived puts whose base is gone
  uint64_t torn_tails = 0;        // segments truncated during recovery
  uint64_t torn_bytes = 0;        // bytes discarded by those truncations
};

/// Single-writer segmented WAL over an injected Backend. Thread contract:
/// all mutating calls (Append*/Sync/WriteCheckpoint/Recover) come from one
/// thread; the static Replay() is safe to run concurrently from readers
/// because it never mutates backend state.
class Wal {
 public:
  /// Applied to every recovered record. `from_checkpoint` records come from
  /// the manifest snapshot: always kPut, unique keys, sorted ascending.
  /// Returns false for a record the store could not apply (a derived put
  /// whose base a torn segment lost); Recover skips and counts it.
  using ApplyFn = std::function<bool(RecordType type, std::string_view key,
                                     std::string_view value,
                                     bool from_checkpoint)>;
  /// Pull-style snapshot source for WriteCheckpoint: yields the next live
  /// (key, value) pair in ascending key order, false when exhausted. The
  /// views only need to stay valid until the next call.
  using SnapshotIter =
      std::function<bool(std::string_view* key, std::string_view* value)>;

  explicit Wal(std::shared_ptr<Backend> backend, WalOptions options = {});

  Status AppendPut(std::string_view key, std::string_view value);
  Status AppendDerivedPut(std::string_view key, std::string_view derivation);
  Status AppendDelete(std::string_view key);
  /// Makes every record appended so far durable.
  Status Sync();

  /// Publishes a checkpoint: seals the active segment, writes the snapshot
  /// + first-live watermark to MANIFEST.tmp, syncs, renames to MANIFEST,
  /// then retires sealed segments below the watermark. Returns Aborted if a
  /// FailNextCheckpointPublish() hook was armed (the tmp file is left
  /// behind, exactly like a crash between sync and rename).
  Status WriteCheckpoint(const SnapshotIter& next);

  /// Rebuilds state from the backend: loads the newest manifest, replays
  /// the tail segments in id order (truncating torn tails), retires any
  /// segments a crash left below the manifest watermark, and opens a fresh
  /// active segment past everything replayed.
  Status Recover(const ApplyFn& apply);

  /// Read-only replay of a backend's current state (manifest + tail) for
  /// concurrent readers: never truncates, renames, or deletes. Torn tails
  /// stop that segment's replay silently.
  static Status Replay(const Backend& backend, const ApplyFn& apply);

  // --- Fault-injection hooks (churn harness / tests) -----------------------
  /// The next WriteCheckpoint syncs MANIFEST.tmp but "crashes" before the
  /// rename: it returns Aborted and publishes nothing. Recovery must use the
  /// previous manifest and ignore the stray tmp.
  void FailNextCheckpointPublish() { fail_next_checkpoint_ = true; }
  /// The next segment seal skips its sync, leaving the sealed bytes exposed
  /// to a crash (a torn tail in a non-final segment).
  void SkipNextSealSync() { skip_next_seal_sync_ = true; }

  const WalStats& stats() const { return stats_; }
  const WalOptions& options() const { return options_; }
  uint64_t active_segment() const { return active_id_; }
  uint64_t first_live_segment() const { return first_live_; }
  Backend* backend() { return backend_.get(); }

  /// Segment file name for id (wal-<10-digit id>.seg).
  static std::string SegmentName(uint64_t id);
  /// Parses a segment file name; returns false for non-segment files.
  static bool ParseSegmentName(std::string_view name, uint64_t* id);

 private:
  Status AppendRecord(RecordType type, std::string_view key,
                      std::string_view value);
  Status SealActiveSegment();

  std::shared_ptr<Backend> backend_;
  WalOptions options_;
  WalStats stats_;
  uint64_t active_id_ = 1;
  uint64_t first_live_ = 1;
  uint64_t active_bytes_ = 0;
  uint64_t unsynced_records_ = 0;
  bool fail_next_checkpoint_ = false;
  bool skip_next_seal_sync_ = false;
};

}  // namespace orchestra::wal

#endif  // ORCHESTRA_WAL_WAL_H_
