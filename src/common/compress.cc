#include "common/compress.h"

#include <zlib.h>

#include "common/serial.h"

namespace orchestra {

std::string CompressBlock(std::string_view input) {
  Writer header;
  header.PutVarint64(input.size());
  std::string out = header.Release();
  size_t header_size = out.size();
  z_stream zs{};
  // Z_BEST_SPEED: the paper emphasizes *lightweight* compression; the goal is
  // exploiting commonality across batched tuples, not maximal ratio. Window
  // bits -15 make it raw deflate, without the zlib header and Adler-32
  // trailer: a block travels in a frame that already says where it ends, and
  // those 6 bytes are a large part of a small block.
  if (deflateInit2(&zs, Z_BEST_SPEED, Z_DEFLATED, -15, 8, Z_DEFAULT_STRATEGY) != Z_OK) {
    return out;
  }
  out.resize(header_size + deflateBound(&zs, static_cast<uLong>(input.size())));
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(input.data()));
  zs.avail_in = static_cast<uInt>(input.size());
  zs.next_out = reinterpret_cast<Bytef*>(out.data() + header_size);
  zs.avail_out = static_cast<uInt>(out.size() - header_size);
  // deflateBound guarantees that one Z_FINISH call ends the stream.
  deflate(&zs, Z_FINISH);
  out.resize(header_size + zs.total_out);
  deflateEnd(&zs);
  return out;
}

Result<std::string> UncompressBlock(std::string_view input) {
  Reader reader(input);
  uint64_t raw_size;
  ORC_RETURN_IF_ERROR(reader.GetVarint64(&raw_size));
  if (raw_size > (1ull << 32)) return Status::Corruption("compress: absurd size");
  std::string out;
  out.resize(raw_size);
  std::string_view body = input.substr(reader.position());
  z_stream zs{};
  if (inflateInit2(&zs, -15) != Z_OK) {
    return Status::Corruption("compress: inflate failed");
  }
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(body.data()));
  zs.avail_in = static_cast<uInt>(body.size());
  zs.next_out = reinterpret_cast<Bytef*>(out.data());
  zs.avail_out = static_cast<uInt>(raw_size);
  int rc = inflate(&zs, Z_FINISH);
  bool whole = rc == Z_STREAM_END && zs.total_out == raw_size && zs.avail_in == 0;
  inflateEnd(&zs);
  if (!whole) return Status::Corruption("compress: inflate failed");
  return out;
}

}  // namespace orchestra
