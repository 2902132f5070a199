// Tuple blocks: the unit of inter-node dataflow. "For performance, the query
// processor batches tuples into blocks by destination, compressing them
// (using lightweight Zip-based compression) and marshalling them in a format
// that exploits their commonalities" (§V-A). Each row carries its provenance
// node-set (the taint used for duplicate-free recovery, §V-D).
#ifndef ORCHESTRA_QUERY_BLOCK_H_
#define ORCHESTRA_QUERY_BLOCK_H_

#include <string>
#include <vector>

#include "common/bitset.h"
#include "storage/value.h"

namespace orchestra::query {

/// A tuple in flight: values plus the set of nodes that processed it or any
/// tuple used to create it.
struct BlockRow {
  storage::Tuple tuple;
  DynamicBitset taint;
};

/// The rows of one dataflow frame (kDataBlock, kShipBlock); the frame's
/// header, outside the block, names its query and op.
struct TupleBlock {
  std::vector<BlockRow> rows;

  /// Serializes and compresses. Taints are encoded compactly; rows are
  /// concatenated before compression so shared prefixes/values deflate well,
  /// and the block's uncompressed size says where the last row ends.
  std::string Encode() const;
  static Status Decode(std::string_view data, TupleBlock* out);

  /// Uncompressed payload size estimate (for CPU cost accounting).
  size_t ApproxRawBytes() const;
};

}  // namespace orchestra::query

#endif  // ORCHESTRA_QUERY_BLOCK_H_
