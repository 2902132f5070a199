// Injectable byte-level I/O backend for the write-ahead log (wal/wal.h). The
// WAL layer never touches files directly; everything goes through this
// interface so the deterministic simulator and the churn harness can run the
// full durability protocol — including crashes that tear an unsynced tail —
// entirely in memory, while the recovery benchmarks exercise real files.
//
// Durability model: Append buffers bytes; Sync makes every byte appended so
// far durable. A crash (MemoryBackend::Crash) keeps all synced bytes and
// tears the unsynced tail deterministically. Rename is the atomic publish
// primitive (POSIX rename semantics): callers sync the source first, so a
// renamed file is never torn.
//
// This header and its implementation are the ONLY sanctioned home for raw
// file I/O in src/ (orchestra-lint rule `wal-raw-io`).
#ifndef ORCHESTRA_WAL_BACKEND_H_
#define ORCHESTRA_WAL_BACKEND_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace orchestra::wal {

/// Flat namespace of append-only files. All methods are safe to call from
/// multiple threads (implementations serialize internally); the WAL's own
/// single-writer discipline lives a layer up.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Appends `bytes` to `name`, creating the file if absent.
  virtual Status Append(const std::string& name, std::string_view bytes) = 0;
  /// Makes every byte appended to `name` so far durable.
  virtual Status Sync(const std::string& name) = 0;
  /// Whole current content of `name` (durable and not-yet-synced bytes).
  virtual Result<std::string> Read(const std::string& name) const = 0;
  virtual bool Exists(const std::string& name) const = 0;
  /// Discards every byte of `name` past `size` (torn-tail truncation).
  virtual Status Truncate(const std::string& name, uint64_t size) = 0;
  /// Atomically replaces `to` with `from` (the manifest publish point).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  /// Idempotent; OK even if absent.
  virtual Status Remove(const std::string& name) = 0;
  /// All file names, sorted.
  virtual std::vector<std::string> List() const = 0;
};

/// Deterministic in-memory backend for the simulator and churn harness.
/// Tracks the synced prefix of every file; Crash() models a machine failure:
/// synced bytes survive, and half of the unsynced tail (rounded down) is
/// kept — a deterministic stand-in for the arbitrary partial page writes a
/// real crash leaves behind, so torn-tail recovery is exercised on a
/// byte-reproducible input.
class MemoryBackend : public Backend {
 public:
  Status Append(const std::string& name, std::string_view bytes) override;
  Status Sync(const std::string& name) override;
  Result<std::string> Read(const std::string& name) const override;
  bool Exists(const std::string& name) const override;
  Status Truncate(const std::string& name, uint64_t size) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& name) override;
  std::vector<std::string> List() const override;

  /// Simulates a crash: every file keeps its synced prefix plus half its
  /// unsynced tail; the surviving bytes count as durable afterwards.
  void Crash();

  uint64_t crashes() const;
  /// Bytes discarded across all Crash() calls (the torn tails).
  uint64_t crash_torn_bytes() const;

 private:
  struct FileState {
    std::string data;
    size_t synced = 0;
  };
  mutable std::mutex mu_;
  std::map<std::string, FileState> files_;
  uint64_t crashes_ = 0;
  uint64_t crash_torn_bytes_ = 0;
};

/// Real-file backend for the recovery benchmarks: one flat directory of
/// files under `root`. Append handles are cached per file; Sync does
/// fflush + fsync. A file's directory entry needs its own fsync (fsync(2)),
/// so Rename and the first Sync of a file this backend created fsync the
/// directory too. Not used by any simulated deployment (the sim stays
/// deterministic on MemoryBackend).
class FileBackend : public Backend {
 public:
  /// Creates `root` if missing. `root` must name a directory dedicated to
  /// this backend; List()/Remove() treat every plain file in it as WAL state.
  explicit FileBackend(std::string root);
  ~FileBackend() override;

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  Status Append(const std::string& name, std::string_view bytes) override;
  Status Sync(const std::string& name) override;
  Result<std::string> Read(const std::string& name) const override;
  bool Exists(const std::string& name) const override;
  Status Truncate(const std::string& name, uint64_t size) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& name) override;
  std::vector<std::string> List() const override;

  const std::string& root() const { return root_; }

 private:
  std::string PathOf(const std::string& name) const;
  /// Closes and drops the cached append handle, if any (callers hold mu_).
  void CloseHandleLocked(const std::string& name);
  /// fsyncs the directory, making its entries durable (callers hold mu_).
  Status SyncDirLocked();

  std::string root_;
  mutable std::mutex mu_;
  std::map<std::string, std::FILE*> handles_;
  std::set<std::string> new_entries_;  // created here; entry not yet synced
};

}  // namespace orchestra::wal

#endif  // ORCHESTRA_WAL_BACKEND_H_
