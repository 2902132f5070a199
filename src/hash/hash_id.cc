#include "hash/hash_id.h"

#include <cstdio>
#include <cstring>

#include "common/serial.h"

namespace orchestra {

HashId HashId::FromDigest(const Sha1Digest& d) {
  HashId id;
  // Digest bytes are big-endian; w_[4] is the most significant limb.
  for (int limb = 0; limb < 5; ++limb) {
    int base = (4 - limb) * 4;
    id.w_[limb] = (static_cast<uint32_t>(d[base]) << 24) |
                  (static_cast<uint32_t>(d[base + 1]) << 16) |
                  (static_cast<uint32_t>(d[base + 2]) << 8) |
                  static_cast<uint32_t>(d[base + 3]);
  }
  return id;
}

HashId HashId::OfBytes(std::string_view data) { return FromDigest(Sha1(data)); }

HashId HashId::Max() {
  HashId id;
  id.w_.fill(0xFFFFFFFFu);
  return id;
}

HashId HashId::FromU64(uint64_t v) {
  HashId id;
  id.w_[0] = static_cast<uint32_t>(v);
  id.w_[1] = static_cast<uint32_t>(v >> 32);
  return id;
}

std::strong_ordering HashId::operator<=>(const HashId& o) const {
  for (int i = 4; i >= 0; --i) {
    if (w_[i] != o.w_[i]) return w_[i] <=> o.w_[i];
  }
  return std::strong_ordering::equal;
}

HashId HashId::Add(const HashId& o) const {
  HashId out;
  uint64_t carry = 0;
  for (int i = 0; i < 5; ++i) {
    uint64_t sum = static_cast<uint64_t>(w_[i]) + o.w_[i] + carry;
    out.w_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  return out;  // carry out of limb 4 wraps mod 2^160
}

HashId HashId::Sub(const HashId& o) const {
  HashId out;
  int64_t borrow = 0;
  for (int i = 0; i < 5; ++i) {
    int64_t diff = static_cast<int64_t>(w_[i]) - o.w_[i] - borrow;
    if (diff < 0) {
      diff += (1ll << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.w_[i] = static_cast<uint32_t>(diff);
  }
  return out;
}

HashId HashId::DivideBy(uint32_t n) const {
  HashId out;
  uint64_t rem = 0;
  for (int i = 4; i >= 0; --i) {
    uint64_t cur = (rem << 32) | w_[i];
    out.w_[i] = static_cast<uint32_t>(cur / n);
    rem = cur % n;
  }
  return out;
}

HashId HashId::MultiplyBy(uint32_t k) const {
  HashId out;
  uint64_t carry = 0;
  for (int i = 0; i < 5; ++i) {
    uint64_t prod = static_cast<uint64_t>(w_[i]) * k + carry;
    out.w_[i] = static_cast<uint32_t>(prod);
    carry = prod >> 32;
  }
  return out;
}

HashId HashId::ClockwiseMidpoint(const HashId& end) const {
  return Add(end.Sub(*this).DivideBy(2));
}

HashId HashId::SpacePartition(uint32_t n) {
  // floor(2^160 / n) by long division of [1,0,0,0,0,0] (limb 5 = 1).
  HashId out;
  uint64_t rem = 1;  // the leading limb of value 2^160
  for (int i = 4; i >= 0; --i) {
    uint64_t cur = (rem << 32);  // next limb of the dividend is 0
    out.w_[i] = static_cast<uint32_t>(cur / n);
    rem = cur % n;
  }
  return out;
}

bool HashId::InRange(const HashId& begin, const HashId& end) const {
  if (begin == end) return true;  // whole ring
  if (begin < end) return begin <= *this && *this < end;
  // Wrapping range.
  return *this >= begin || *this < end;
}

std::string HashId::ToHex() const {
  char buf[41];
  for (int limb = 4, pos = 0; limb >= 0; --limb, pos += 8) {
    std::snprintf(buf + pos, 9, "%08x", w_[limb]);
  }
  return std::string(buf, 40);
}

std::string HashId::ToShortHex() const { return ToHex().substr(0, 8); }

void HashId::EncodeTo(Writer* w) const {
  for (int limb = 4; limb >= 0; --limb) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      w->PutU8(static_cast<uint8_t>(w_[limb] >> shift));
    }
  }
}

Status HashId::DecodeFrom(Reader* r, HashId* out) {
  std::string_view bytes;
  ORC_RETURN_IF_ERROR(r->GetRawView(&bytes, 20));
  Sha1Digest d;
  std::memcpy(d.data(), bytes.data(), d.size());
  *out = FromDigest(d);
  return Status::OK();
}

size_t HashId::StdHash() const {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (uint32_t limb : w_) {
    h ^= limb;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
  }
  return static_cast<size_t>(h);
}

uint64_t HashId::Top64() const {
  return (static_cast<uint64_t>(w_[4]) << 32) | w_[3];
}

}  // namespace orchestra
