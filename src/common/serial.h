// Byte-level serialization: little-endian fixed ints, LEB128 varints,
// length-prefixed strings. All network messages and on-disk records in the
// system are encoded through Writer/Reader so that message sizes measured by
// the network layer are real byte counts.
#ifndef ORCHESTRA_COMMON_SERIAL_H_
#define ORCHESTRA_COMMON_SERIAL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace orchestra {

/// Appends encoded values to an owned byte buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(size_t reserve) { buf_.reserve(reserve); }

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutVarint32(uint32_t v);
  void PutVarint64(uint64_t v);
  /// Length-prefixed (varint) byte string.
  void PutString(std::string_view s);
  /// Raw bytes, no prefix.
  void PutRaw(const void* data, size_t n);
  void PutBool(bool b) { PutU8(b ? 1 : 0); }

  const std::string& data() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  std::string buf_;
};

/// Bounds-checked decoder over a non-owned byte span.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* v);
  Status GetU16(uint16_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI64(int64_t* v);
  Status GetDouble(double* v);
  Status GetVarint32(uint32_t* v);
  Status GetVarint64(uint64_t* v);
  /// Reads a varint element count, and rejects with Corruption a count the
  /// rest of the input cannot hold at `min_bytes` per element — so a decoder
  /// may size a container from it.
  Status GetCount(uint64_t* n, size_t min_bytes);
  Status GetString(std::string* s);
  Status GetStringView(std::string_view* s);
  /// Zero-copy view of the next `n` raw (unprefixed) bytes.
  Status GetRawView(std::string_view* out, size_t n);
  Status GetBool(bool* b);

  /// Zero-copy view of everything not yet consumed (position is unchanged).
  std::string_view RemainingView() const { return data_.substr(pos_); }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n) {
    if (remaining() < n) return Status::Corruption("serial: truncated input");
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// The readers every decoder runs per byte or per value are defined here, so
// that they inline into the codecs' loops. Each writes its output on every
// path, zero (or an empty view) when it fails, so an inlined caller's local
// is never read uninitialized.

inline Status Reader::GetU8(uint8_t* v) {
  *v = 0;
  ORC_RETURN_IF_ERROR(Need(1));
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

inline Status Reader::GetU64(uint64_t* v) {
  *v = 0;
  ORC_RETURN_IF_ERROR(Need(8));
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  *v = r;
  return Status::OK();
}

inline Status Reader::GetDouble(double* v) {
  *v = 0;
  uint64_t bits = 0;
  ORC_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

inline Status Reader::GetVarint64(uint64_t* v) {
  *v = 0;
  uint64_t r = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    uint8_t byte;
    ORC_RETURN_IF_ERROR(GetU8(&byte));
    r |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) {
      *v = r;
      return Status::OK();
    }
  }
  return Status::Corruption("varint64 too long");
}

inline Status Reader::GetStringView(std::string_view* s) {
  *s = {};
  uint64_t n = 0;
  ORC_RETURN_IF_ERROR(GetVarint64(&n));
  ORC_RETURN_IF_ERROR(Need(n));
  *s = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

}  // namespace orchestra

#endif  // ORCHESTRA_COMMON_SERIAL_H_
