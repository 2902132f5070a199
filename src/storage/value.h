// Typed values and tuples. The engine supports the three types the paper's
// workloads need (§VI-A): 64-bit integers (also used for dates, as day
// numbers), doubles, and variable-length strings (STBenchmark's 25-char
// payloads, TPC-H comments).
#ifndef ORCHESTRA_STORAGE_VALUE_H_
#define ORCHESTRA_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/serial.h"

namespace orchestra::storage {

enum class ValueType : uint8_t { kNull = 0, kInt64 = 1, kDouble = 2, kString = 3 };

const char* ValueTypeName(ValueType t);

/// A single typed value. Ordered comparison is defined within a type;
/// cross-type comparison orders by type tag (needed only for canonical
/// sorting, never produced by well-typed plans).
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  static Value Null() { return Value(); }

  ValueType type() const { return static_cast<ValueType>(v_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }

  int64_t AsInt64() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Numeric coercion: int64 widens to double. Precondition: numeric type.
  double NumericValue() const;

  bool operator==(const Value& o) const { return v_ == o.v_; }
  /// Total order: by type tag, then by value.
  int Compare(const Value& o) const;
  bool operator<(const Value& o) const { return Compare(o) < 0; }

  void EncodeTo(Writer* w) const;
  /// Decodes one value into `out`, reusing a string it holds. With `out`
  /// null, walks past the value with the same checks and materializes
  /// nothing.
  static Status DecodeFrom(Reader* r, Value* out);

  /// Order-preserving byte encoding (memcmp order == value order within a
  /// type); used for key bytes so the localstore's ordered scans follow key
  /// order. Strings must not be compared against numerics.
  void EncodeOrdered(std::string* out) const;

  /// Inverse of EncodeOrdered: consumes one value from the front of `in`,
  /// advancing it. Enables covering index scans, which materialize key
  /// attributes directly from TupleIds without touching data nodes (Table I).
  static Status DecodeOrdered(std::string_view* in, Value* out);

  std::string ToString() const;
  size_t StdHash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

/// A row: one Value per schema column.
using Tuple = std::vector<Value>;

void EncodeTuple(const Tuple& t, Writer* w);
/// Decodes a tuple into `out`, reusing the values it holds.
Status DecodeTuple(Reader* r, Tuple* out);
/// DecodeTuple that materializes only the columns `keep` lists (ascending
/// column indexes; null: every column) and leaves every other column null. It
/// walks every value, so it fails exactly when DecodeTuple fails (late
/// materialization: a scan decodes only what its plan reads).
Status DecodeTupleColumns(Reader* r, const std::vector<int32_t>* keep, Tuple* out);
std::string TupleToString(const Tuple& t);

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    size_t h = 0x9E3779B97F4A7C15ull;
    for (const auto& v : t) h = h * 1099511628211ull + v.StdHash();
    return h;
  }
};

/// Lexicographic tuple comparison.
int CompareTuples(const Tuple& a, const Tuple& b);

}  // namespace orchestra::storage

#endif  // ORCHESTRA_STORAGE_VALUE_H_
