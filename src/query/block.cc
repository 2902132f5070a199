#include "query/block.h"

#include "common/compress.h"
#include "common/log.h"
#include "common/serial.h"

namespace orchestra::query {

std::string TupleBlock::Encode() const {
  Writer body;
  body.PutU64(query_id);
  body.PutVarint32(static_cast<uint32_t>(dest_op));
  body.PutVarint64(rows.size());
  for (const BlockRow& r : rows) {
    storage::EncodeTuple(r.tuple, &body);
    r.taint.EncodeTo(&body);
  }
  return CompressBlock(body.data());
}

Status TupleBlock::Decode(std::string_view data, TupleBlock* out) {
  auto raw = UncompressBlock(data);
  ORC_RETURN_IF_ERROR(raw.status());
  Reader r(*raw);
  ORC_RETURN_IF_ERROR(r.GetU64(&out->query_id));
  uint32_t dest;
  ORC_RETURN_IF_ERROR(r.GetVarint32(&dest));
  out->dest_op = static_cast<int32_t>(dest);
  uint64_t n;
  ORC_RETURN_IF_ERROR(r.GetVarint64(&n));
  if (n > (1ull << 24)) return Status::Corruption("block: absurd row count");
  out->rows.clear();
  out->rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    BlockRow row;
    ORC_RETURN_IF_ERROR(storage::DecodeTuple(&r, &row.tuple));
    ORC_RETURN_IF_ERROR(DynamicBitset::DecodeFrom(&r, &row.taint));
    out->rows.push_back(std::move(row));
  }
  return Status::OK();
}

size_t TupleBlock::ApproxRawBytes() const {
  size_t bytes = 32;
  for (const BlockRow& r : rows) {
    bytes += 8 + r.taint.size() / 8;
    for (const auto& v : r.tuple) {
      bytes += 2;
      if (v.type() == storage::ValueType::kString) {
        bytes += v.AsString().size();
      } else {
        bytes += 8;
      }
    }
  }
  return bytes;
}

}  // namespace orchestra::query
