// DynamicBitset: the provenance node-set attached to tuples (§V-D). Sized to
// the routing snapshot's node count at query start; supports the operations
// taint-tracking needs (union, intersection test, canonical key form).
#ifndef ORCHESTRA_COMMON_BITSET_H_
#define ORCHESTRA_COMMON_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

namespace orchestra {

class Writer;
class Reader;
class Status;

/// Fixed-capacity bitset whose size is chosen at construction.
///
/// Up to 128 bits live inside the object (two words), so a taint of a
/// deployment of up to 128 nodes costs no allocation; a larger set holds its
/// words on the heap.
///
/// Equality/hash are value-based so a DynamicBitset can key a hash map (the
/// aggregate operator partitions each group into sub-groups keyed by the set
/// of nodes that contributed, §V-D).
class DynamicBitset {
 public:
  DynamicBitset() : inline_{0, 0} {}
  explicit DynamicBitset(size_t bits);
  DynamicBitset(const DynamicBitset& other);
  DynamicBitset(DynamicBitset&& other) noexcept;
  DynamicBitset& operator=(const DynamicBitset& other);
  DynamicBitset& operator=(DynamicBitset&& other) noexcept;
  ~DynamicBitset() { Free(); }

  size_t size() const { return bits_; }
  bool empty_set() const;  // true when no bit is set

  void Set(size_t i);
  void Reset(size_t i);
  bool Test(size_t i) const;

  /// this |= other. Both must have identical size.
  void UnionWith(const DynamicBitset& other);
  /// Any common set bit?
  bool Intersects(const DynamicBitset& other) const;
  size_t Count() const;
  /// Index of lowest set bit, or size() when empty.
  size_t FirstSet() const;

  bool operator==(const DynamicBitset& other) const;

  /// Total order (size, then word-lexicographic): lets bitset-keyed maps be
  /// ordered, so iteration order is deterministic — required anywhere the
  /// traversal feeds emitted rows or wire frames (det-unordered-iter).
  bool operator<(const DynamicBitset& other) const;

  /// Stable hash for use as unordered_map key.
  size_t Hash() const;

  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, DynamicBitset* out);

  std::string ToString() const;  // e.g. "{0,3,7}"

 private:
  bool on_heap() const { return bits_ > 64 * std::size(inline_); }
  size_t num_words() const { return (static_cast<size_t>(bits_) + 63) / 64; }
  uint64_t* words() { return on_heap() ? heap_ : inline_; }
  const uint64_t* words() const { return on_heap() ? heap_ : inline_; }
  void Free();

  uint32_t bits_ = 0;
  union {
    uint64_t inline_[2];
    uint64_t* heap_;
  };
};

static_assert(sizeof(DynamicBitset) <= 32, "a taint must not grow rows or cache entries");

struct DynamicBitsetHash {
  size_t operator()(const DynamicBitset& b) const { return b.Hash(); }
};

}  // namespace orchestra

#endif  // ORCHESTRA_COMMON_BITSET_H_
