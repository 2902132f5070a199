#include "hash/sha1.h"

#include <cstring>

#include "hash/sha1_internal.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace orchestra {

namespace sha1_internal {

namespace {
inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }
}  // namespace

void BlockPortable(uint32_t h[5], const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = Rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  for (int i = 0; i < 80; ++i) {
    uint32_t f, k;
    if (i < 20) {
      f = (b & c) | ((~b) & d);
      k = 0x5A827999;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDC;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6;
    }
    uint32_t tmp = Rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = Rotl(b, 30);
    b = a;
    a = tmp;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

#if defined(__x86_64__)

bool ShaNiAvailable() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return available;
}

// Twenty steps of four rounds each. `abcd` holds a..d (a in the top lane);
// e[] alternates between the e term of the next step and the saved a of
// the current one. The message schedule lives in four registers, w[s % 4]
// holding words 4s..4s+3: steps 1-16 start the next words (sha1msg1), steps
// 2-17 fold in w[t-8] (xor) and steps 3-18 finish them (sha1msg2).
__attribute__((target("sha,sse4.1"))) void BlockShaNi(uint32_t h[5],
                                                      const uint8_t* block) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0x1B);
  __m128i e[2] = {_mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0), _mm_setzero_si128()};
  const __m128i abcd_in = abcd;
  const __m128i e_in = e[0];
  __m128i w[4];
#pragma GCC unroll 20
  for (int s = 0; s < 20; ++s) {
    if (s < 4) {
      w[s] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * s)), byte_swap);
    }
    __m128i& cur = e[s % 2];
    cur = s == 0 ? _mm_add_epi32(cur, w[0]) : _mm_sha1nexte_epu32(cur, w[s % 4]);
    e[(s + 1) % 2] = abcd;
    if (s >= 3 && s <= 18) w[(s + 1) % 4] = _mm_sha1msg2_epu32(w[(s + 1) % 4], w[s % 4]);
    switch (s / 5) {  // the round function and constant: an immediate
      case 0:
        abcd = _mm_sha1rnds4_epu32(abcd, cur, 0);
        break;
      case 1:
        abcd = _mm_sha1rnds4_epu32(abcd, cur, 1);
        break;
      case 2:
        abcd = _mm_sha1rnds4_epu32(abcd, cur, 2);
        break;
      default:
        abcd = _mm_sha1rnds4_epu32(abcd, cur, 3);
        break;
    }
    if (s >= 1 && s <= 16) w[(s + 3) % 4] = _mm_sha1msg1_epu32(w[(s + 3) % 4], w[s % 4]);
    if (s >= 2 && s <= 17) w[(s + 2) % 4] = _mm_xor_si128(w[(s + 2) % 4], w[s % 4]);
  }
  e[0] = _mm_sha1nexte_epu32(e[0], e_in);
  abcd = _mm_add_epi32(abcd, abcd_in);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h), _mm_shuffle_epi32(abcd, 0x1B));
  h[4] = static_cast<uint32_t>(_mm_extract_epi32(e[0], 3));
}

#else

bool ShaNiAvailable() { return false; }

#endif

}  // namespace sha1_internal

Sha1Hasher::Sha1Hasher() {
  h_[0] = 0x67452301;
  h_[1] = 0xEFCDAB89;
  h_[2] = 0x98BADCFE;
  h_[3] = 0x10325476;
  h_[4] = 0xC3D2E1F0;
}

void Sha1Hasher::ProcessBlock(const uint8_t* block) {
#if defined(__x86_64__)
  if (sha1_internal::ShaNiAvailable()) {
    sha1_internal::BlockShaNi(h_, block);
    return;
  }
#endif
  sha1_internal::BlockPortable(h_, block);
}

void Sha1Hasher::Update(std::string_view data) { Update(data.data(), data.size()); }

void Sha1Hasher::Update(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += n;
  if (buffer_len_ > 0) {
    size_t take = std::min(n, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
  while (n >= 64) {
    ProcessBlock(p);
    p += 64;
    n -= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
}

Sha1Digest Sha1Hasher::Finish() {
  // Padding: 0x80, zeros up to 56 bytes into a block, the bit length
  // big-endian. A tail past 55 bytes leaves no room for the length, so it
  // takes one more block.
  uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  ProcessBlock(buffer_);

  Sha1Digest digest;
  for (int i = 0; i < 5; ++i) {
    digest[i * 4] = static_cast<uint8_t>(h_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
  }
  return digest;
}

Sha1Digest Sha1(std::string_view data) {
  Sha1Hasher hasher;
  hasher.Update(data);
  return hasher.Finish();
}

}  // namespace orchestra
