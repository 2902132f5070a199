// The two SHA-1 compression functions behind Sha1Hasher. Each applies one
// 64-byte block to the five-word state and yields identical words; the
// hasher uses SHA-NI when the CPU reports it and the portable code
// otherwise. Exposed so that tests run both against the same vectors.
#ifndef ORCHESTRA_HASH_SHA1_INTERNAL_H_
#define ORCHESTRA_HASH_SHA1_INTERNAL_H_

#include <cstdint>

namespace orchestra::sha1_internal {

/// FIPS 180-1 compression, portable C++.
void BlockPortable(uint32_t h[5], const uint8_t* block);

/// True when the CPU has the SHA extensions (and SSE4.1) that BlockShaNi
/// needs; checked once per process.
bool ShaNiAvailable();

#if defined(__x86_64__)
/// The same compression with the SHA-NI instructions. Only valid when
/// ShaNiAvailable().
void BlockShaNi(uint32_t h[5], const uint8_t* block);
#endif

}  // namespace orchestra::sha1_internal

#endif  // ORCHESTRA_HASH_SHA1_INTERNAL_H_
