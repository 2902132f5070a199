#include "common/bitset.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "common/serial.h"

namespace orchestra {

DynamicBitset::DynamicBitset(size_t bits) : bits_(static_cast<uint32_t>(bits)) {
  assert(bits <= UINT32_MAX);
  if (on_heap()) {
    heap_ = new uint64_t[num_words()]();
  } else {
    inline_[0] = inline_[1] = 0;
  }
}

DynamicBitset::DynamicBitset(const DynamicBitset& other) : bits_(other.bits_) {
  if (on_heap()) {
    heap_ = new uint64_t[num_words()];
    std::memcpy(heap_, other.heap_, num_words() * sizeof(uint64_t));
  } else {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  }
}

DynamicBitset::DynamicBitset(DynamicBitset&& other) noexcept : DynamicBitset() {
  *this = std::move(other);
}

DynamicBitset& DynamicBitset::operator=(const DynamicBitset& other) {
  if (this != &other) *this = DynamicBitset(other);
  return *this;
}

DynamicBitset& DynamicBitset::operator=(DynamicBitset&& other) noexcept {
  if (this == &other) return *this;
  Free();
  bits_ = other.bits_;
  if (on_heap()) {
    heap_ = other.heap_;
    other.bits_ = 0;
    other.inline_[0] = other.inline_[1] = 0;
  } else {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  }
  return *this;
}

void DynamicBitset::Free() {
  if (on_heap()) delete[] heap_;
}

bool DynamicBitset::empty_set() const {
  const uint64_t* w = words();
  return std::all_of(w, w + num_words(), [](uint64_t x) { return x == 0; });
}

void DynamicBitset::Set(size_t i) {
  assert(i < bits_);
  words()[i / 64] |= (1ull << (i % 64));
}

void DynamicBitset::Reset(size_t i) {
  assert(i < bits_);
  words()[i / 64] &= ~(1ull << (i % 64));
}

bool DynamicBitset::Test(size_t i) const {
  assert(i < bits_);
  return (words()[i / 64] >> (i % 64)) & 1;
}

void DynamicBitset::UnionWith(const DynamicBitset& other) {
  assert(bits_ == other.bits_);
  uint64_t* w = words();
  const uint64_t* o = other.words();
  for (size_t i = 0; i < num_words(); ++i) w[i] |= o[i];
}

bool DynamicBitset::Intersects(const DynamicBitset& other) const {
  const uint64_t* w = words();
  const uint64_t* o = other.words();
  size_t n = std::min(num_words(), other.num_words());
  for (size_t i = 0; i < n; ++i)
    if (w[i] & o[i]) return true;
  return false;
}

size_t DynamicBitset::Count() const {
  const uint64_t* w = words();
  size_t c = 0;
  for (size_t i = 0; i < num_words(); ++i) {
    c += static_cast<size_t>(__builtin_popcountll(w[i]));
  }
  return c;
}

size_t DynamicBitset::FirstSet() const {
  const uint64_t* w = words();
  for (size_t i = 0; i < num_words(); ++i) {
    if (w[i]) return i * 64 + static_cast<size_t>(__builtin_ctzll(w[i]));
  }
  return bits_;
}

bool DynamicBitset::operator==(const DynamicBitset& other) const {
  return bits_ == other.bits_ &&
         std::equal(words(), words() + num_words(), other.words());
}

bool DynamicBitset::operator<(const DynamicBitset& other) const {
  if (bits_ != other.bits_) return bits_ < other.bits_;
  return std::lexicographical_compare(words(), words() + num_words(), other.words(),
                                      other.words() + other.num_words());
}

size_t DynamicBitset::Hash() const {
  // FNV-1a over words plus the size.
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(bits_);
  const uint64_t* w = words();
  for (size_t i = 0; i < num_words(); ++i) mix(w[i]);
  return static_cast<size_t>(h);
}

void DynamicBitset::EncodeTo(Writer* w) const {
  w->PutVarint64(bits_);
  const uint64_t* words_in = words();
  for (size_t i = 0; i < num_words(); ++i) w->PutVarint64(words_in[i]);
}

Status DynamicBitset::DecodeFrom(Reader* r, DynamicBitset* out) {
  uint64_t bits;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&bits));
  if (bits > (1u << 20)) return Status::Corruption("bitset: absurd size");
  // Each word is a varint of at least one byte.
  if ((bits + 63) / 64 > r->remaining()) {
    return Status::Corruption("bitset: size exceeds the input");
  }
  DynamicBitset b(bits);
  uint64_t* words = b.words();
  for (size_t i = 0; i < b.num_words(); ++i) {
    ORC_RETURN_IF_ERROR(r->GetVarint64(&words[i]));
  }
  *out = std::move(b);
  return Status::OK();
}

std::string DynamicBitset::ToString() const {
  std::string s = "{";
  bool first = true;
  for (size_t i = 0; i < bits_; ++i) {
    if (Test(i)) {
      if (!first) s += ",";
      s += std::to_string(i);
      first = false;
    }
  }
  s += "}";
  return s;
}

}  // namespace orchestra
