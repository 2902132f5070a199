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

}  // namespace orchestra

#endif  // ORCHESTRA_COMMON_SERIAL_H_
