#include "common/serial.h"

namespace orchestra {

void Writer::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void Writer::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Writer::PutVarint32(uint32_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v | 0x80));
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void Writer::PutVarint64(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v | 0x80));
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void Writer::PutString(std::string_view s) {
  PutVarint64(s.size());
  PutRaw(s.data(), s.size());
}

void Writer::PutRaw(const void* data, size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

Status Reader::GetU16(uint16_t* v) {
  ORC_RETURN_IF_ERROR(Need(2));
  uint16_t r = 0;
  for (int i = 0; i < 2; ++i) r |= static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  *v = r;
  return Status::OK();
}

Status Reader::GetU32(uint32_t* v) {
  ORC_RETURN_IF_ERROR(Need(4));
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  *v = r;
  return Status::OK();
}

Status Reader::GetI64(int64_t* v) {
  uint64_t u;
  ORC_RETURN_IF_ERROR(GetU64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status Reader::GetVarint32(uint32_t* v) {
  uint64_t wide;
  ORC_RETURN_IF_ERROR(GetVarint64(&wide));
  if (wide > UINT32_MAX) return Status::Corruption("varint32 overflow");
  *v = static_cast<uint32_t>(wide);
  return Status::OK();
}

Status Reader::GetCount(uint64_t* n, size_t min_bytes) {
  ORC_RETURN_IF_ERROR(GetVarint64(n));
  if (*n > remaining() / min_bytes) {
    return Status::Corruption("serial: count exceeds the input");
  }
  return Status::OK();
}

Status Reader::GetString(std::string* s) {
  std::string_view view;
  ORC_RETURN_IF_ERROR(GetStringView(&view));
  s->assign(view);
  return Status::OK();
}

Status Reader::GetRawView(std::string_view* out, size_t n) {
  ORC_RETURN_IF_ERROR(Need(n));
  *out = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status Reader::GetBool(bool* b) {
  uint8_t v;
  ORC_RETURN_IF_ERROR(GetU8(&v));
  *b = (v != 0);
  return Status::OK();
}

}  // namespace orchestra
