#include "wal/wal.h"

#include <zlib.h>

#include <cstdio>
#include <vector>

#include "common/serial.h"

namespace orchestra::wal {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestTmpName[] = "MANIFEST.tmp";
// Frame header: [len u32le][crc u32le]; len counts the type byte + payload.
constexpr size_t kFrameHeaderBytes = 8;
// WriteCheckpoint streams the snapshot to the backend in slabs of this size
// so checkpointing a large store does not buffer it twice in memory.
constexpr size_t kManifestFlushBytes = 1 << 20;

uint32_t ReadLE32(const char* p) {
  auto b = [&](int i) { return static_cast<uint32_t>(static_cast<unsigned char>(p[i])); };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

uint32_t FrameCrc(RecordType type, std::string_view payload) {
  auto t = static_cast<unsigned char>(type);
  uint32_t crc = static_cast<uint32_t>(crc32(0, &t, 1));
  return static_cast<uint32_t>(
      crc32(crc, reinterpret_cast<const unsigned char*>(payload.data()),
            static_cast<uInt>(payload.size())));
}

void AppendFrame(std::string* out, RecordType type, std::string_view payload) {
  Writer w(kFrameHeaderBytes + 1 + payload.size());
  w.PutU32(static_cast<uint32_t>(1 + payload.size()));
  w.PutU32(FrameCrc(type, payload));
  w.PutU8(static_cast<uint8_t>(type));
  w.PutRaw(payload.data(), payload.size());
  out->append(w.data());
}

std::string EncodeKv(std::string_view key, std::string_view value) {
  Writer w(key.size() + value.size() + 5);
  w.PutVarint32(static_cast<uint32_t>(key.size()));
  w.PutRaw(key.data(), key.size());
  w.PutRaw(value.data(), value.size());
  return w.Release();
}

bool DecodeKv(std::string_view payload, std::string_view* key,
              std::string_view* value) {
  Reader r(payload);
  uint32_t key_len = 0;
  if (!r.GetVarint32(&key_len).ok() || !r.GetRawView(key, key_len).ok()) {
    return false;
  }
  *value = r.RemainingView();
  return true;
}

/// The record types a log holds.
bool IsTailRecord(RecordType type) {
  return type == RecordType::kPut || type == RecordType::kDelete ||
         type == RecordType::kDerivedPut;
}

/// Walks the CRC-framed records of one buffer. Any framing defect —
/// truncated header, impossible length, CRC mismatch — is a torn tail: the
/// walk stops at the last whole record and reports where. A whole record
/// the handler refuses stops the walk too, as `rejected`.
struct FrameWalk {
  uint64_t records = 0;
  uint64_t valid_bytes = 0;  // offset of the first defective byte, if torn
  bool torn = false;
  bool rejected = false;
};

FrameWalk WalkFrames(
    std::string_view buf,
    const std::function<bool(RecordType, std::string_view payload)>& handle) {
  FrameWalk walk;
  size_t off = 0;
  while (off + kFrameHeaderBytes <= buf.size()) {
    uint32_t len = ReadLE32(buf.data() + off);
    uint32_t crc = ReadLE32(buf.data() + off + 4);
    if (len == 0 || len > buf.size() - off - kFrameHeaderBytes) break;
    std::string_view body = buf.substr(off + kFrameHeaderBytes, len);
    auto type = static_cast<RecordType>(static_cast<unsigned char>(body[0]));
    std::string_view payload = body.substr(1);
    if (FrameCrc(type, payload) != crc) break;
    if (!handle(type, payload)) {
      walk.valid_bytes = off;
      walk.rejected = true;
      return walk;
    }
    walk.records += 1;
    off += kFrameHeaderBytes + len;
  }
  walk.valid_bytes = off;
  walk.torn = off != buf.size();
  return walk;
}

}  // namespace

std::string Wal::SegmentName(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%010llu.seg",
                static_cast<unsigned long long>(id));
  return buf;
}

bool Wal::ParseSegmentName(std::string_view name, uint64_t* id) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".seg";
  if (name.size() != kPrefix.size() + 10 + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  uint64_t v = 0;
  for (char c : name.substr(kPrefix.size(), 10)) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

Wal::Wal(std::shared_ptr<Backend> backend, WalOptions options)
    : backend_(std::move(backend)), options_(options) {}

Status Wal::AppendRecord(RecordType type, std::string_view key,
                         std::string_view value) {
  std::string frame;
  AppendFrame(&frame, type, EncodeKv(key, value));
  ORC_RETURN_IF_ERROR(backend_->Append(SegmentName(active_id_), frame));
  active_bytes_ += frame.size();
  unsynced_records_ += 1;
  stats_.records_appended += 1;
  stats_.bytes_appended += frame.size();
  if (options_.sync_every_records > 0 &&
      unsynced_records_ >= options_.sync_every_records) {
    return Sync();
  }
  return Status::OK();
}

Status Wal::AppendPut(std::string_view key, std::string_view value) {
  return AppendRecord(RecordType::kPut, key, value);
}

Status Wal::AppendDerivedPut(std::string_view key, std::string_view derivation) {
  return AppendRecord(RecordType::kDerivedPut, key, derivation);
}

Status Wal::AppendDelete(std::string_view key) {
  return AppendRecord(RecordType::kDelete, key, {});
}

Status Wal::Sync() {
  if (unsynced_records_ == 0) return Status::OK();
  std::string name = SegmentName(active_id_);
  if (backend_->Exists(name)) {
    ORC_RETURN_IF_ERROR(backend_->Sync(name));
    stats_.syncs += 1;
  }
  unsynced_records_ = 0;
  return Status::OK();
}

Status Wal::SealActiveSegment() {
  // A sealed log is never appended to again, so it is synced whole: only
  // the newest log can tear.
  ORC_RETURN_IF_ERROR(Sync());
  stats_.segments_sealed += 1;
  active_id_ += 1;
  active_bytes_ = 0;
  return Status::OK();
}

Status Wal::WriteCheckpoint(const SnapshotIter& next) {
  // The snapshot is about to cover everything appended so far; seal the
  // active log so the first-live watermark lands on a log boundary.
  if (active_bytes_ > 0) ORC_RETURN_IF_ERROR(SealActiveSegment());
  uint64_t first_live = active_id_;

  backend_->Remove(kManifestTmpName).ok();  // stale tmp of a failed publish
  std::string buf;
  {
    Writer header;
    header.PutVarint64(first_live);
    AppendFrame(&buf, RecordType::kManifestHeader, header.data());
  }
  std::string_view key, value;
  while (next(&key, &value)) {
    AppendFrame(&buf, RecordType::kPut, EncodeKv(key, value));
    if (buf.size() >= kManifestFlushBytes) {
      ORC_RETURN_IF_ERROR(backend_->Append(kManifestTmpName, buf));
      stats_.checkpoint_bytes += buf.size();
      buf.clear();
    }
  }
  ORC_RETURN_IF_ERROR(backend_->Append(kManifestTmpName, buf));
  stats_.checkpoint_bytes += buf.size();
  ORC_RETURN_IF_ERROR(backend_->Sync(kManifestTmpName));
  stats_.syncs += 1;

  if (fail_next_checkpoint_) {
    // Injected fault: "crash" between sync and rename. The synced tmp stays
    // behind; recovery ignores it and uses the previous manifest.
    fail_next_checkpoint_ = false;
    stats_.checkpoint_failures += 1;
    return Status::Aborted("wal: checkpoint publish failed (injected)");
  }

  ORC_RETURN_IF_ERROR(backend_->Rename(kManifestTmpName, kManifestName));
  first_live_ = first_live;
  stats_.checkpoints += 1;

  // The manifest is durable; every sealed log below it is dead weight.
  for (const std::string& name : backend_->List()) {
    uint64_t id = 0;
    if (ParseSegmentName(name, &id) && id < first_live_) {
      backend_->Remove(name).ok();
      stats_.segments_retired += 1;
    }
  }
  return Status::OK();
}

namespace {

/// Shared manifest decode: header frame then kPut entry frames. A manifest
/// is published by atomic rename after a sync, so framing defects are real
/// corruption, not torn tails.
Status ReplayManifest(std::string_view data, uint64_t* first_live,
                      const Wal::ApplyFn& apply, uint64_t* entries) {
  bool saw_header = false;
  FrameWalk walk = WalkFrames(data, [&](RecordType type, std::string_view payload) {
    if (!saw_header) {
      if (type != RecordType::kManifestHeader) return false;
      Reader r(payload);
      if (!r.GetVarint64(first_live).ok()) return false;
      saw_header = true;
      return true;
    }
    if (type != RecordType::kPut) return false;
    std::string_view key, value;
    if (!DecodeKv(payload, &key, &value)) return false;
    apply(RecordType::kPut, key, value, /*from_checkpoint=*/true);
    if (entries != nullptr) *entries += 1;
    return true;
  });
  if (walk.torn || walk.rejected || !saw_header) {
    return Status::Corruption("wal: manifest corrupt");
  }
  return Status::OK();
}

}  // namespace

Status Wal::Recover(const ApplyFn& apply) {
  stats_.recoveries += 1;
  backend_->Remove(kManifestTmpName).ok();  // unpublished checkpoint residue

  first_live_ = 1;
  if (backend_->Exists(kManifestName)) {
    Result<std::string> data = backend_->Read(kManifestName);
    if (!data.ok()) return data.status();
    ORC_RETURN_IF_ERROR(
        ReplayManifest(*data, &first_live_, apply, &stats_.snapshot_records));
  }

  std::vector<uint64_t> logs;  // at or past the watermark, in id order
  for (const std::string& name : backend_->List()) {
    uint64_t id = 0;
    if (!ParseSegmentName(name, &id)) continue;
    if (id < first_live_) {
      // A crash between manifest publish and retirement left it behind.
      backend_->Remove(name).ok();
      stats_.segments_retired += 1;
      continue;
    }
    logs.push_back(id);
  }

  active_id_ = first_live_;
  active_bytes_ = 0;
  unsynced_records_ = 0;
  for (uint64_t id : logs) {
    const std::string name = SegmentName(id);
    Result<std::string> data = backend_->Read(name);
    if (!data.ok()) return data.status();
    FrameWalk walk =
        WalkFrames(*data, [&](RecordType type, std::string_view payload) {
          std::string_view key, value;
          return IsTailRecord(type) && DecodeKv(payload, &key, &value) &&
                 apply(type, key, value, /*from_checkpoint=*/false);
        });
    stats_.replayed_records += walk.records;
    if (walk.rejected) {
      return Status::Corruption("wal: " + name + " holds a record that does not apply");
    }
    if (walk.torn) {
      // Every seal syncs, so a torn frame anywhere but the newest log is
      // damage, not a crash's residue.
      if (id != logs.back()) return Status::Corruption("wal: torn log " + name);
      stats_.torn_tails += 1;
      stats_.torn_bytes += data->size() - walk.valid_bytes;
      ORC_RETURN_IF_ERROR(backend_->Truncate(name, walk.valid_bytes));
    }
    active_id_ = id;
    active_bytes_ = walk.valid_bytes;
  }
  // Appends continue the newest log, so a recovery adds no log. It is
  // synced first: what was replayed stays durable, and the seal that ends
  // the log leaves no unsynced byte in it.
  if (active_bytes_ > 0) {
    ORC_RETURN_IF_ERROR(backend_->Sync(SegmentName(active_id_)));
    stats_.syncs += 1;
  }
  return Status::OK();
}

Status Wal::Replay(const Backend& backend, const ApplyFn& apply) {
  // Read-only and tolerant by design: logs may be retired between List
  // and Read when a writer is live, and the active tail may end mid-window.
  // Point-in-time consistency is NOT guaranteed against a concurrent
  // checkpoint; this is the reader-side smoke/debug facility, not recovery.
  uint64_t first_live = 1;
  if (backend.Exists(kManifestName)) {
    Result<std::string> data = backend.Read(kManifestName);
    if (data.ok()) {
      ORC_RETURN_IF_ERROR(ReplayManifest(*data, &first_live, apply, nullptr));
    }
  }
  for (const std::string& name : backend.List()) {
    uint64_t id = 0;
    if (!ParseSegmentName(name, &id) || id < first_live) continue;
    Result<std::string> data = backend.Read(name);
    if (!data.ok()) continue;  // retired mid-walk
    WalkFrames(*data, [&](RecordType type, std::string_view payload) {
      std::string_view key, value;
      if (!DecodeKv(payload, &key, &value) || !IsTailRecord(type)) return false;
      apply(type, key, value, /*from_checkpoint=*/false);
      return true;
    });
  }
  return Status::OK();
}

}  // namespace orchestra::wal
