#include <gtest/gtest.h>

#include "common/serial.h"
#include "hash/hash_id.h"
#include "hash/sha1.h"

namespace orchestra {
namespace {

std::string HexDigest(const Sha1Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  for (uint8_t b : d) {
    s += kHex[b >> 4];
    s += kHex[b & 0xF];
  }
  return s;
}

// FIPS 180-1 / RFC 3174 known-answer vectors.
TEST(Sha1, KnownVectors) {
  EXPECT_EQ(HexDigest(Sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(HexDigest(Sha1("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(HexDigest(Sha1("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(HexDigest(Sha1(std::string(1000000, 'a'))),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog, repeatedly. ";
  for (int i = 0; i < 6; ++i) data += data;
  Sha1Hasher h;
  size_t pos = 0;
  // Update in odd-sized pieces crossing block boundaries.
  for (size_t chunk : {1u, 63u, 64u, 65u, 100u, 1000u}) {
    h.Update(data.substr(pos, chunk));
    pos += chunk;
  }
  h.Update(data.substr(pos));
  EXPECT_EQ(HexDigest(h.Finish()), HexDigest(Sha1(data)));
}

TEST(HashId, OrderingAndEquality) {
  HashId zero = HashId::Zero();
  HashId one = HashId::FromU64(1);
  HashId max = HashId::Max();
  EXPECT_LT(zero, one);
  EXPECT_LT(one, max);
  EXPECT_EQ(zero, HashId::FromU64(0));
}

TEST(HashId, AddSubWrapAround) {
  HashId max = HashId::Max();
  HashId one = HashId::FromU64(1);
  EXPECT_EQ(max.Add(one), HashId::Zero());           // 2^160-1 + 1 wraps to 0
  EXPECT_EQ(HashId::Zero().Sub(one), max);           // 0 - 1 wraps to max
  EXPECT_EQ(one.Add(max), HashId::Zero());
}

TEST(HashId, DistanceOnRing) {
  HashId a = HashId::FromU64(100);
  HashId b = HashId::FromU64(40);
  EXPECT_EQ(a.DistanceFrom(b), HashId::FromU64(60));
  // Wrapping distance: from 100 clockwise to 40 goes the long way round.
  HashId d = b.DistanceFrom(a);
  EXPECT_EQ(d.Add(HashId::FromU64(60)), HashId::Zero());
}

TEST(HashId, DivideAndMultiply) {
  HashId v = HashId::FromU64(1000);
  EXPECT_EQ(v.DivideBy(10), HashId::FromU64(100));
  EXPECT_EQ(v.MultiplyBy(3), HashId::FromU64(3000));
  // Division truncates.
  EXPECT_EQ(HashId::FromU64(7).DivideBy(2), HashId::FromU64(3));
}

TEST(HashId, SpacePartitionTimesNCoversSpace) {
  for (uint32_t n : {1u, 2u, 3u, 7u, 16u, 100u, 255u}) {
    HashId part = HashId::SpacePartition(n);
    // n * floor(2^160/n) <= 2^160 - 1 and within n of the top.
    HashId total = part.MultiplyBy(n);
    HashId gap = HashId::Zero().Sub(total);  // 2^160 - total (mod)
    EXPECT_LT(gap, HashId::FromU64(n)) << "n=" << n;
  }
}

TEST(HashId, ClockwiseMidpoint) {
  HashId a = HashId::FromU64(10);
  HashId b = HashId::FromU64(20);
  EXPECT_EQ(a.ClockwiseMidpoint(b), HashId::FromU64(15));
  // Wrapping midpoint: from max-5 to +5 (distance 10) -> midpoint at 0.
  HashId near_top = HashId::Max().Sub(HashId::FromU64(4));  // 2^160-5
  HashId mid = near_top.ClockwiseMidpoint(HashId::FromU64(5));
  EXPECT_EQ(mid, HashId::Zero());
}

TEST(HashId, InRangeBasic) {
  HashId lo = HashId::FromU64(10), hi = HashId::FromU64(20);
  EXPECT_TRUE(HashId::FromU64(10).InRange(lo, hi));
  EXPECT_TRUE(HashId::FromU64(15).InRange(lo, hi));
  EXPECT_FALSE(HashId::FromU64(20).InRange(lo, hi));
  EXPECT_FALSE(HashId::FromU64(5).InRange(lo, hi));
}

TEST(HashId, InRangeWrapping) {
  HashId lo = HashId::Max().Sub(HashId::FromU64(9));  // 2^160-10
  HashId hi = HashId::FromU64(10);
  EXPECT_TRUE(HashId::Max().InRange(lo, hi));
  EXPECT_TRUE(HashId::Zero().InRange(lo, hi));
  EXPECT_TRUE(HashId::FromU64(9).InRange(lo, hi));
  EXPECT_FALSE(HashId::FromU64(10).InRange(lo, hi));
  EXPECT_FALSE(HashId::FromU64(1000).InRange(lo, hi));
}

TEST(HashId, EmptyRangeMeansFullRing) {
  HashId p = HashId::FromU64(123);
  EXPECT_TRUE(HashId::FromU64(5).InRange(p, p));
  EXPECT_TRUE(HashId::Max().InRange(p, p));
}

TEST(HashId, HexRoundTripStructure) {
  HashId h = HashId::OfBytes("orchestra");
  EXPECT_EQ(h.ToHex().size(), 40u);
  EXPECT_EQ(h.ToShortHex(), h.ToHex().substr(0, 8));
}

TEST(HashId, EncodeDecodeRoundTrip) {
  HashId h = HashId::OfBytes("some key");
  Writer w;
  h.EncodeTo(&w);
  Reader r(w.data());
  HashId back;
  ASSERT_TRUE(HashId::DecodeFrom(&r, &back).ok());
  EXPECT_EQ(h, back);
}

// The one encoding is 20 big-endian bytes: byte order is hash order, and a
// digest encodes to itself.
TEST(HashId, BigEndianBytesPreserveOrder) {
  HashId a = HashId::OfBytes("a"), b = HashId::OfBytes("b");
  Writer aw, bw;
  a.EncodeTo(&aw);
  b.EncodeTo(&bw);
  EXPECT_EQ(aw.size(), 20u);
  EXPECT_EQ(a < b, aw.data() < bw.data());
  const Sha1Digest d = Sha1("a");
  EXPECT_EQ(aw.data(), std::string(reinterpret_cast<const char*>(d.data()), d.size()));
  Writer one;
  HashId::FromU64(0x0102).EncodeTo(&one);
  EXPECT_EQ(one.data(), std::string(18, '\0') + "\x01\x02");
  // Truncated input is refused.
  Reader short_input(std::string_view(aw.data()).substr(0, 19));
  HashId back;
  EXPECT_TRUE(HashId::DecodeFrom(&short_input, &back).IsCorruption());
}

TEST(HashId, DigestMatchesOfBytes) {
  EXPECT_EQ(HashId::FromDigest(Sha1("x")), HashId::OfBytes("x"));
  EXPECT_NE(HashId::OfBytes("x"), HashId::OfBytes("y"));
}

class PartitionProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PartitionProperty, EveryHashLandsInItsPartition) {
  uint32_t n = GetParam();
  for (int i = 0; i < 200; ++i) {
    HashId h = HashId::OfBytes("key-" + std::to_string(i));
    // PartitionIndexFor agrees with the boundary arithmetic.
    uint32_t idx = 0;
    HashId width = HashId::SpacePartition(n);
    while (idx + 1 < n && width.MultiplyBy(idx + 1) <= h) ++idx;
    HashId begin = width.MultiplyBy(idx);
    EXPECT_LE(begin, h);
    if (idx + 1 < n) {
      EXPECT_LT(h, width.MultiplyBy(idx + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, PartitionProperty,
                         ::testing::Values(1u, 2u, 5u, 16u, 33u, 128u));

}  // namespace
}  // namespace orchestra
