#include "query/block.h"

#include "common/compress.h"
#include "common/log.h"
#include "common/serial.h"

namespace orchestra::query {

std::string TupleBlock::Encode() const {
  Writer body;
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
  out->rows.clear();
  while (!r.AtEnd()) {
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
