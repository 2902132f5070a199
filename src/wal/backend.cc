#include "wal/backend.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace orchestra::wal {

// ---------------------------------------------------------------------------
// MemoryBackend

Status MemoryBackend::Append(const std::string& name, std::string_view bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[name].data.append(bytes.data(), bytes.size());
  return Status::OK();
}

Status MemoryBackend::Sync(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("wal: sync of missing file " + name);
  it->second.synced = it->second.data.size();
  return Status::OK();
}

Result<std::string> MemoryBackend::Read(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("wal: no such file " + name);
  return it->second.data;
}

bool MemoryBackend::Exists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.find(name) != files_.end();
}

Status MemoryBackend::Truncate(const std::string& name, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("wal: truncate of missing file " + name);
  FileState& f = it->second;
  if (size < f.data.size()) f.data.resize(size);
  f.synced = std::min<size_t>(f.synced, f.data.size());
  return Status::OK();
}

Status MemoryBackend::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("wal: rename of missing file " + from);
  FileState moved = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(moved);
  return Status::OK();
}

Status MemoryBackend::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(name);
  return Status::OK();
}

std::vector<std::string> MemoryBackend::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, f] : files_) names.push_back(name);
  return names;  // map iteration is already sorted
}

void MemoryBackend::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  crashes_ += 1;
  for (auto& [name, f] : files_) {
    if (f.data.size() > f.synced) {
      // Keep the synced prefix plus half the unsynced tail: enough to land
      // mid-record (the torn tail recovery must truncate) without being a
      // trivial "lose everything unsynced" rule.
      size_t keep = f.synced + (f.data.size() - f.synced) / 2;
      crash_torn_bytes_ += f.data.size() - keep;
      f.data.resize(keep);
    }
    f.synced = f.data.size();
  }
}

uint64_t MemoryBackend::crashes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashes_;
}

uint64_t MemoryBackend::crash_torn_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crash_torn_bytes_;
}

// ---------------------------------------------------------------------------
// FileBackend

namespace {

bool ValidName(const std::string& name) {
  return !name.empty() && name.find('/') == std::string::npos &&
         name != "." && name != "..";
}

}  // namespace

FileBackend::FileBackend(std::string root) : root_(std::move(root)) {
  ::mkdir(root_.c_str(), 0755);  // EEXIST is fine; Append reports real errors
}

FileBackend::~FileBackend() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, f] : handles_) std::fclose(f);
}

std::string FileBackend::PathOf(const std::string& name) const {
  return root_ + "/" + name;
}

void FileBackend::CloseHandleLocked(const std::string& name) {
  auto it = handles_.find(name);
  if (it != handles_.end()) {
    std::fclose(it->second);
    handles_.erase(it);
  }
}

Status FileBackend::Append(const std::string& name, std::string_view bytes) {
  if (!ValidName(name)) return Status::InvalidArgument("wal: bad file name " + name);
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE*& f = handles_[name];
  if (f == nullptr) {
    const std::string path = PathOf(name);
    struct stat st{};
    const bool created = ::stat(path.c_str(), &st) != 0;
    f = std::fopen(path.c_str(), "ab");
    if (f == nullptr) {
      handles_.erase(name);
      return Status::IOError("wal: open failed: " + path + ": " +
                             std::strerror(errno));
    }
    if (created) new_entries_.insert(name);
  }
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    return Status::IOError("wal: short write: " + PathOf(name));
  }
  return Status::OK();
}

Status FileBackend::Sync(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handles_.find(name);
  bool synced;
  if (it != handles_.end()) {
    synced = std::fflush(it->second) == 0 && ::fsync(::fileno(it->second)) == 0;
  } else {
    // Bytes an earlier handle or process wrote may sit in the page cache.
    const int fd = ::open(PathOf(name).c_str(), O_RDONLY);
    synced = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0) ::close(fd);
  }
  if (!synced) return Status::IOError("wal: fsync failed: " + PathOf(name));
  if (new_entries_.erase(name) > 0) return SyncDirLocked();
  return Status::OK();
}

Status FileBackend::SyncDirLocked() {
  const int fd = ::open(root_.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("wal: open failed: " + root_ + ": " +
                           std::strerror(errno));
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Status::IOError("wal: directory fsync failed: " + root_);
  return Status::OK();
}

Result<std::string> FileBackend::Read(const std::string& name) const {
  if (!ValidName(name)) return Status::InvalidArgument("wal: bad file name " + name);
  {
    // Push buffered appends down before reading through a second handle.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = handles_.find(name);
    if (it != handles_.end()) std::fflush(it->second);
  }
  std::FILE* f = std::fopen(PathOf(name).c_str(), "rb");
  if (f == nullptr) return Status::NotFound("wal: no such file " + name);
  std::string out;
  // A log holds everything since the last checkpoint: size the buffer once.
  struct stat st{};
  if (::fstat(::fileno(f), &st) == 0) out.reserve(static_cast<size_t>(st.st_size));
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::IOError("wal: read failed: " + PathOf(name));
  return out;
}

bool FileBackend::Exists(const std::string& name) const {
  struct stat st{};
  return ValidName(name) && ::stat(PathOf(name).c_str(), &st) == 0;
}

Status FileBackend::Truncate(const std::string& name, uint64_t size) {
  if (!ValidName(name)) return Status::InvalidArgument("wal: bad file name " + name);
  std::lock_guard<std::mutex> lock(mu_);
  CloseHandleLocked(name);
  if (::truncate(PathOf(name).c_str(), static_cast<off_t>(size)) != 0) {
    return Status::IOError("wal: truncate failed: " + PathOf(name));
  }
  return Status::OK();
}

Status FileBackend::Rename(const std::string& from, const std::string& to) {
  if (!ValidName(from) || !ValidName(to)) {
    return Status::InvalidArgument("wal: bad file name");
  }
  std::lock_guard<std::mutex> lock(mu_);
  CloseHandleLocked(from);
  CloseHandleLocked(to);
  if (std::rename(PathOf(from).c_str(), PathOf(to).c_str()) != 0) {
    return Status::IOError("wal: rename failed: " + PathOf(from));
  }
  // The rename is a publish point only once the directory holds it.
  new_entries_.erase(from);
  new_entries_.erase(to);
  return SyncDirLocked();
}

Status FileBackend::Remove(const std::string& name) {
  if (!ValidName(name)) return Status::InvalidArgument("wal: bad file name " + name);
  std::lock_guard<std::mutex> lock(mu_);
  CloseHandleLocked(name);
  new_entries_.erase(name);
  std::remove(PathOf(name).c_str());  // already-absent is fine (idempotent)
  return Status::OK();
}

std::vector<std::string> FileBackend::List() const {
  std::vector<std::string> names;
  DIR* d = ::opendir(root_.c_str());
  if (d == nullptr) return names;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(std::move(name));
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace orchestra::wal
