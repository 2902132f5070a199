// HashId: a 160-bit unsigned integer on the substrate's key ring (§III-A).
// Values start at 0, increase clockwise, and wrap at 2^160-1. Supports the
// ring arithmetic the overlay needs: modular add/sub, clockwise distance,
// midpoints, and exact division of the full space into n equal ranges.
#ifndef ORCHESTRA_HASH_HASH_ID_H_
#define ORCHESTRA_HASH_HASH_ID_H_

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "hash/sha1.h"

namespace orchestra {

class Writer;
class Reader;
class Status;

/// 160-bit unsigned integer; limbs stored little-endian (w[0] = least
/// significant 32 bits) so carries run forward.
class HashId {
 public:
  HashId() : w_{} {}

  /// From a SHA-1 digest (big-endian byte order, per convention).
  static HashId FromDigest(const Sha1Digest& d);
  /// SHA-1 of arbitrary bytes.
  static HashId OfBytes(std::string_view data);
  /// Smallest value (0).
  static HashId Zero() { return HashId(); }
  /// Largest value (2^160 - 1).
  static HashId Max();
  /// From a small integer (for tests).
  static HashId FromU64(uint64_t v);

  /// Total order as unsigned integers (NOT ring distance).
  std::strong_ordering operator<=>(const HashId& o) const;
  bool operator==(const HashId& o) const = default;

  /// (this + o) mod 2^160.
  HashId Add(const HashId& o) const;
  /// (this - o) mod 2^160.
  HashId Sub(const HashId& o) const;
  /// Clockwise distance from `from` to this: (this - from) mod 2^160.
  HashId DistanceFrom(const HashId& from) const { return Sub(from); }
  /// this / n (truncating). Precondition: n > 0.
  HashId DivideBy(uint32_t n) const;
  /// this * k mod 2^160.
  HashId MultiplyBy(uint32_t k) const;
  /// Midpoint of the clockwise range [this, end): this + (end - this)/2.
  HashId ClockwiseMidpoint(const HashId& end) const;
  /// Size of one of n equal partitions of the whole space: floor(2^160 / n).
  static HashId SpacePartition(uint32_t n);

  /// True iff this lies in the clockwise half-open range [begin, end).
  /// An empty ring range (begin == end) is interpreted as the FULL ring,
  /// matching the single-node case where one node owns everything.
  bool InRange(const HashId& begin, const HashId& end) const;

  /// Hex, most significant first, e.g. "00ab...". 40 chars.
  std::string ToHex() const;
  /// First 8 hex chars, for logs.
  std::string ToShortHex() const;

  /// The one encoding of a hash, wherever it appears (localstore keys, page
  /// entries, every wire format): 20 bytes, most significant first, so
  /// memcmp order is numeric order.
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, HashId* out);

  /// Stable hash for unordered containers.
  size_t StdHash() const;

  /// Top 64 bits (for approximate math / pretty printing).
  uint64_t Top64() const;

 private:
  std::array<uint32_t, 5> w_;
};

struct HashIdHash {
  size_t operator()(const HashId& h) const { return h.StdHash(); }
};

}  // namespace orchestra

#endif  // ORCHESTRA_HASH_HASH_ID_H_
