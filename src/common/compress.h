// Lightweight Zip-based block compression (paper §V-A: tuple blocks are
// "compressed using lightweight Zip-based compression"). Thin wrapper over
// zlib with a level tuned for speed.
#ifndef ORCHESTRA_COMMON_COMPRESS_H_
#define ORCHESTRA_COMMON_COMPRESS_H_

#include <string>
#include <string_view>

#include "common/result.h"

namespace orchestra {

/// Compresses `input` with raw deflate (fast level). The output embeds the
/// uncompressed size so Uncompress needs no side channel.
std::string CompressBlock(std::string_view input);

/// Inverse of CompressBlock. Fails with Corruption on malformed input, and
/// on bytes past the end of the compressed stream.
Result<std::string> UncompressBlock(std::string_view input);

}  // namespace orchestra

#endif  // ORCHESTRA_COMMON_COMPRESS_H_
