#include "storage/value.h"

#include <cmath>
#include <cstring>

#include "common/log.h"

namespace orchestra::storage {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt64: return "INT64";
    case ValueType::kDouble: return "DOUBLE";
    case ValueType::kString: return "STRING";
  }
  return "?";
}

double Value::NumericValue() const {
  if (type() == ValueType::kInt64) return static_cast<double>(AsInt64());
  ORC_CHECK(type() == ValueType::kDouble, "NumericValue on non-numeric");
  return AsDouble();
}

int Value::Compare(const Value& o) const {
  if (type() != o.type()) {
    // Numeric cross-compare is meaningful; everything else orders by tag.
    bool numeric = (type() == ValueType::kInt64 || type() == ValueType::kDouble) &&
                   (o.type() == ValueType::kInt64 || o.type() == ValueType::kDouble);
    if (numeric) {
      double a = NumericValue(), b = o.NumericValue();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    return type() < o.type() ? -1 : 1;
  }
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64: {
      int64_t a = AsInt64(), b = o.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kDouble: {
      double a = AsDouble(), b = o.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kString:
      return AsString().compare(o.AsString()) < 0
                 ? -1
                 : (AsString() == o.AsString() ? 0 : 1);
  }
  return 0;
}

void Value::EncodeTo(Writer* w) const {
  w->PutU8(static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      // Zigzag so small negatives stay short.
      w->PutVarint64((static_cast<uint64_t>(AsInt64()) << 1) ^
                     static_cast<uint64_t>(AsInt64() >> 63));
      break;
    case ValueType::kDouble:
      w->PutDouble(AsDouble());
      break;
    case ValueType::kString:
      w->PutString(AsString());
      break;
  }
}

Status Value::DecodeFrom(Reader* r, Value* out) {
  uint8_t tag;
  ORC_RETURN_IF_ERROR(r->GetU8(&tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      if (out != nullptr) out->v_ = std::monostate{};
      return Status::OK();
    case ValueType::kInt64: {
      uint64_t z;
      ORC_RETURN_IF_ERROR(r->GetVarint64(&z));
      if (out != nullptr) out->v_ = static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
      return Status::OK();
    }
    case ValueType::kDouble: {
      double d;
      ORC_RETURN_IF_ERROR(r->GetDouble(&d));
      if (out != nullptr) out->v_ = d;
      return Status::OK();
    }
    case ValueType::kString: {
      std::string_view s;
      ORC_RETURN_IF_ERROR(r->GetStringView(&s));
      if (out == nullptr) return Status::OK();
      if (auto* held = std::get_if<std::string>(&out->v_)) {
        held->assign(s);
      } else {
        out->v_.emplace<std::string>(s);
      }
      return Status::OK();
    }
  }
  return Status::Corruption("value: bad type tag");
}

void Value::EncodeOrdered(std::string* out) const {
  out->push_back(static_cast<char>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64: {
      // Flip the sign bit: two's-complement order becomes memcmp order.
      uint64_t u = static_cast<uint64_t>(AsInt64()) ^ (1ull << 63);
      for (int i = 7; i >= 0; --i) out->push_back(static_cast<char>(u >> (8 * i)));
      break;
    }
    case ValueType::kDouble: {
      uint64_t bits;
      double d = AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      // IEEE754 total order transform.
      if (bits >> 63) {
        bits = ~bits;
      } else {
        bits |= (1ull << 63);
      }
      for (int i = 7; i >= 0; --i) out->push_back(static_cast<char>(bits >> (8 * i)));
      break;
    }
    case ValueType::kString: {
      // Escape 0x00 as 0x00 0xFF, terminate with 0x00 0x01: order-preserving
      // and unambiguous for arbitrary bytes.
      for (char c : AsString()) {
        out->push_back(c);
        if (c == '\0') out->push_back(static_cast<char>(0xFF));
      }
      out->push_back('\0');
      out->push_back('\x01');
      break;
    }
  }
}

Status Value::DecodeOrdered(std::string_view* in, Value* out) {
  if (in->empty()) return Status::Corruption("ordered: empty input");
  auto type = static_cast<ValueType>((*in)[0]);
  in->remove_prefix(1);
  switch (type) {
    case ValueType::kNull:
      *out = Value::Null();
      return Status::OK();
    case ValueType::kInt64: {
      if (in->size() < 8) return Status::Corruption("ordered: short int");
      uint64_t u = 0;
      for (int i = 0; i < 8; ++i) u = (u << 8) | static_cast<uint8_t>((*in)[i]);
      in->remove_prefix(8);
      *out = Value(static_cast<int64_t>(u ^ (1ull << 63)));
      return Status::OK();
    }
    case ValueType::kDouble: {
      if (in->size() < 8) return Status::Corruption("ordered: short double");
      uint64_t bits = 0;
      for (int i = 0; i < 8; ++i) bits = (bits << 8) | static_cast<uint8_t>((*in)[i]);
      in->remove_prefix(8);
      if (bits >> 63) {
        bits &= ~(1ull << 63);
      } else {
        bits = ~bits;
      }
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      *out = Value(d);
      return Status::OK();
    }
    case ValueType::kString: {
      std::string s;
      size_t i = 0;
      while (true) {
        if (i >= in->size()) return Status::Corruption("ordered: unterminated string");
        char c = (*in)[i];
        if (c == '\0') {
          if (i + 1 >= in->size()) return Status::Corruption("ordered: bad escape");
          char next = (*in)[i + 1];
          if (next == '\x01') {  // terminator
            i += 2;
            break;
          }
          if (next == '\xFF') {  // escaped NUL
            s.push_back('\0');
            i += 2;
            continue;
          }
          return Status::Corruption("ordered: bad escape byte");
        }
        s.push_back(c);
        ++i;
      }
      in->remove_prefix(i);
      *out = Value(std::move(s));
      return Status::OK();
    }
  }
  return Status::Corruption("ordered: bad type tag");
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt64: return std::to_string(AsInt64());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
      return buf;
    }
    case ValueType::kString: return "'" + AsString() + "'";
  }
  return "?";
}

size_t Value::StdHash() const {
  switch (type()) {
    case ValueType::kNull: return 0xDEADBEEF;
    case ValueType::kInt64: return std::hash<int64_t>()(AsInt64());
    case ValueType::kDouble: {
      double d = AsDouble();
      if (d == static_cast<int64_t>(d)) return std::hash<int64_t>()(static_cast<int64_t>(d));
      return std::hash<double>()(d);
    }
    case ValueType::kString: return std::hash<std::string>()(AsString());
  }
  return 0;
}

void EncodeTuple(const Tuple& t, Writer* w) {
  w->PutVarint32(static_cast<uint32_t>(t.size()));
  for (const auto& v : t) v.EncodeTo(w);
}

Status DecodeTuple(Reader* r, Tuple* out) { return DecodeTupleColumns(r, nullptr, out); }

Status DecodeTupleColumns(Reader* r, const std::vector<int32_t>* keep, Tuple* out) {
  // Every value takes at least its tag byte.
  uint64_t n = 0;
  ORC_RETURN_IF_ERROR(r->GetCount(&n, 1));
  if (n > (1u << 16)) return Status::Corruption("tuple: absurd arity");
  out->resize(n);
  auto next = keep != nullptr ? keep->begin() : std::vector<int32_t>::const_iterator();
  for (uint32_t i = 0; i < n; ++i) {
    Value* v = &(*out)[i];
    if (keep != nullptr) {
      while (next != keep->end() && *next < static_cast<int32_t>(i)) ++next;
      if (next == keep->end() || *next != static_cast<int32_t>(i)) {
        *v = Value();
        v = nullptr;
      }
    }
    ORC_RETURN_IF_ERROR(Value::DecodeFrom(r, v));
  }
  return Status::OK();
}

std::string TupleToString(const Tuple& t) {
  std::string s = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i) s += ", ";
    s += t[i].ToString();
  }
  s += ")";
  return s;
}

int CompareTuples(const Tuple& a, const Tuple& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
}

}  // namespace orchestra::storage
