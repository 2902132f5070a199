#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitset.h"
#include "common/compress.h"
#include "common/log.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/status.h"

namespace orchestra {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing page");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing page");
}

TEST(Status, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::IOError("disk"); };
  auto outer = [&]() -> Status {
    ORC_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), Status::Code::kIOError);
}

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.ValueOr(3), 7);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::Unavailable("down"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_EQ(r.ValueOr(3), 3);
}

TEST(Serial, FixedWidthRoundTrip) {
  Writer w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutDouble(3.25);
  w.PutBool(true);

  Reader r(w.data());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  bool b;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU16(&u16).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  ASSERT_TRUE(r.GetBool(&b).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d, 3.25);
  EXPECT_TRUE(b);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serial, TruncatedInputIsCorruption) {
  Writer w;
  w.PutU32(77);
  Reader r(std::string_view(w.data()).substr(0, 2));
  uint32_t v;
  EXPECT_TRUE(r.GetU32(&v).IsCorruption());
}

class VarintTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintTest, RoundTrip) {
  uint64_t v = GetParam();
  Writer w;
  w.PutVarint64(v);
  Reader r(w.data());
  uint64_t got;
  ASSERT_TRUE(r.GetVarint64(&got).ok());
  EXPECT_EQ(got, v);
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintTest,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull, 16383ull,
                                           16384ull, (1ull << 32) - 1, 1ull << 32,
                                           UINT64_MAX));

TEST(Serial, VarintTooLongIsCorruption) {
  std::string bad(11, '\xFF');
  Reader r(bad);
  uint64_t v;
  EXPECT_TRUE(r.GetVarint64(&v).IsCorruption());
}

TEST(Serial, StringRoundTrip) {
  Writer w;
  w.PutString("hello");
  w.PutString(std::string("\x00\x01有", 5));
  w.PutString("");
  Reader r(w.data());
  std::string a, b, c;
  ASSERT_TRUE(r.GetString(&a).ok());
  ASSERT_TRUE(r.GetString(&b).ok());
  ASSERT_TRUE(r.GetString(&c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, std::string("\x00\x01有", 5));
  EXPECT_EQ(c, "");
}

TEST(Compress, RoundTripAndShrinksRedundantData) {
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "abcabcabc|";
  std::string packed = CompressBlock(input);
  EXPECT_LT(packed.size(), input.size() / 4);
  auto out = UncompressBlock(packed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(Compress, EmptyInput) {
  std::string packed = CompressBlock("");
  auto out = UncompressBlock(packed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "");
}

TEST(Compress, GarbageFailsCleanly) {
  auto out = UncompressBlock("\x05garbage-not-zlib");
  EXPECT_FALSE(out.ok());
}

// A block ends where its frame ends, so a stream cut short and one with a
// byte after its end are both malformed.
TEST(Compress, CutOrTrailingBytesFail) {
  std::string packed = CompressBlock("abcabcabc|abcabcabc");
  ASSERT_TRUE(UncompressBlock(packed).ok());
  EXPECT_FALSE(UncompressBlock(packed.substr(0, packed.size() - 1)).ok());
  EXPECT_FALSE(UncompressBlock(packed + "x").ok());
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, ForkIndependentOfParentDraws) {
  Rng a(5);
  Rng child = a.Fork(9);
  Rng a2(5);
  Rng child2 = a2.Fork(9);
  EXPECT_EQ(child.NextU64(), child2.NextU64());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Bitset, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_TRUE(b.empty_set());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(Bitset, UnionAndIntersects) {
  DynamicBitset a(100), b(100);
  a.Set(3);
  b.Set(77);
  EXPECT_FALSE(a.Intersects(b));
  a.UnionWith(b);
  EXPECT_TRUE(a.Test(3));
  EXPECT_TRUE(a.Test(77));
  EXPECT_TRUE(a.Intersects(b));
}

TEST(Bitset, HashEqualityContract) {
  DynamicBitset a(64), b(64);
  a.Set(5);
  b.Set(5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.Set(6);
  EXPECT_FALSE(a == b);
}

TEST(Bitset, EncodeDecodeRoundTrip) {
  DynamicBitset a(70);
  a.Set(0);
  a.Set(69);
  Writer w;
  a.EncodeTo(&w);
  Reader r(w.data());
  DynamicBitset b;
  ASSERT_TRUE(DynamicBitset::DecodeFrom(&r, &b).ok());
  EXPECT_EQ(a, b);
}

TEST(Bitset, FirstSet) {
  DynamicBitset b(128);
  EXPECT_EQ(b.FirstSet(), 128u);
  b.Set(100);
  EXPECT_EQ(b.FirstSet(), 100u);
  b.Set(3);
  EXPECT_EQ(b.FirstSet(), 3u);
}

// Sizes around the inline/heap boundary (128 bits).
constexpr size_t kBoundarySizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 200};

void ExpectMatches(const DynamicBitset& b, const std::vector<bool>& ref) {
  ASSERT_EQ(b.size(), ref.size());
  size_t count = 0, first = ref.size();
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(b.Test(i), ref[i]) << "bit " << i << " of " << ref.size();
    if (ref[i]) {
      ++count;
      first = std::min(first, i);
    }
  }
  EXPECT_EQ(b.Count(), count);
  EXPECT_EQ(b.FirstSet(), first);
  EXPECT_EQ(b.empty_set(), count == 0);
}

TEST(Bitset, EveryOperationMatchesAVectorOfBoolAcrossTheInlineBoundary) {
  Rng rng(11);
  for (size_t n : kBoundarySizes) {
    SCOPED_TRACE(n);
    DynamicBitset a(n), b(n);
    std::vector<bool> ra(n), rb(n);
    ExpectMatches(a, ra);
    for (size_t step = 0; step < 3 * n; ++step) {
      size_t i = static_cast<size_t>(rng.Uniform(n));
      if (rng.Uniform(3) == 0) {
        a.Reset(i);
        ra[i] = false;
      } else {
        a.Set(i);
        ra[i] = true;
      }
      size_t j = static_cast<size_t>(rng.Uniform(n));
      b.Set(j);
      rb[j] = true;
    }
    ExpectMatches(a, ra);
    ExpectMatches(b, rb);

    bool common = false;
    for (size_t i = 0; i < n; ++i) common = common || (ra[i] && rb[i]);
    EXPECT_EQ(a.Intersects(b), common);
    EXPECT_EQ(b.Intersects(a), common);
    EXPECT_EQ(a == b, ra == rb);

    DynamicBitset u = a;
    u.UnionWith(b);
    std::vector<bool> ru(n);
    for (size_t i = 0; i < n; ++i) ru[i] = ra[i] || rb[i];
    ExpectMatches(u, ru);
    ExpectMatches(a, ra);  // the copy is independent

    // Order: size first, then words lexicographically (word 0 first, each
    // word compared as an integer).
    auto word = [](const std::vector<bool>& r, size_t w) {
      uint64_t v = 0;
      for (size_t i = 64 * w; i < std::min(r.size(), 64 * (w + 1)); ++i) {
        if (r[i]) v |= 1ull << (i % 64);
      }
      return v;
    };
    bool less = false;
    for (size_t w = 0; w < (n + 63) / 64; ++w) {
      if (word(ra, w) != word(rb, w)) {
        less = word(ra, w) < word(rb, w);
        break;
      }
    }
    EXPECT_EQ(a < b, less);
    EXPECT_FALSE(a < a);

    // Hash: FNV-1a over the size, then each word.
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(n);
    for (size_t w = 0; w < (n + 63) / 64; ++w) mix(word(ra, w));
    EXPECT_EQ(a.Hash(), static_cast<size_t>(h));
  }
}

TEST(Bitset, CopiesAndMovesAcrossTheInlineBoundary) {
  for (size_t n : kBoundarySizes) {
    for (size_t m : kBoundarySizes) {
      SCOPED_TRACE(testing::Message() << n << " -> " << m);
      DynamicBitset src(n);
      if (n > 0) src.Set(n - 1);
      DynamicBitset dst(m);
      if (m > 0) dst.Set(0);

      DynamicBitset copy(src);
      EXPECT_EQ(copy, src);
      dst = src;
      EXPECT_EQ(dst, src);
      if (n > 0) {
        dst.Reset(n - 1);  // the copy owns its words
        EXPECT_TRUE(src.Test(n - 1));
      }

      DynamicBitset other(m);
      DynamicBitset moved(std::move(copy));
      EXPECT_EQ(moved, src);
      other = std::move(moved);
      EXPECT_EQ(other, src);
      const DynamicBitset& alias = other;
      other = alias;  // self-assignment keeps the value
      EXPECT_EQ(other, src);
      DynamicBitset again(m);
      again = DynamicBitset(src);
      EXPECT_EQ(again.Hash(), src.Hash());
    }
  }
}

// The encoding is a wire format: taints travel in every data block, and
// aggregate sub-groups order by operator<, which feeds emitted frames.
TEST(Bitset, EncodingIsPinned) {
  auto encode = [](const DynamicBitset& b) {
    Writer w;
    b.EncodeTo(&w);
    return w.Release();
  };
  EXPECT_EQ(encode(DynamicBitset()), std::string("\x00", 1));
  DynamicBitset small(5);
  small.Set(0);
  small.Set(4);
  EXPECT_EQ(encode(small), std::string("\x05\x11"));
  DynamicBitset wide(130);
  wide.Set(1);
  wide.Set(129);
  EXPECT_EQ(encode(wide), std::string("\x82\x01\x02\x00\x02", 5));
  DynamicBitset full(64);
  full.Set(63);
  EXPECT_EQ(encode(full),
            std::string("\x40\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01", 11));
  for (size_t n : kBoundarySizes) {
    DynamicBitset b(n);
    for (size_t i = 0; i < n; i += 3) b.Set(i);
    std::string bytes = encode(b);
    Reader r(bytes);
    DynamicBitset back;
    ASSERT_TRUE(DynamicBitset::DecodeFrom(&r, &back).ok()) << n;
    EXPECT_EQ(back, b);
    EXPECT_TRUE(r.AtEnd());
  }
  static_assert(sizeof(DynamicBitset) <= 32);
}

TEST(Bitset, DecodeRefusesASizeTheBodyCannotHold) {
  // 1,000,000 bits need 15,625 words; the body holds three bytes.
  Writer w;
  w.PutVarint64(1000000);
  w.PutRaw("\x01\x02\x03", 3);
  Reader r(w.data());
  DynamicBitset b(3);
  Status st = DynamicBitset::DecodeFrom(&r, &b);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(b.size(), 3u);  // left as it was
  // Exactly enough bytes for the words still decodes.
  Writer ok;
  ok.PutVarint64(129);
  ok.PutRaw("\x00\x00\x00", 3);
  Reader r2(ok.data());
  EXPECT_TRUE(DynamicBitset::DecodeFrom(&r2, &b).ok());
  EXPECT_EQ(b.size(), 129u);
}

}  // namespace
}  // namespace orchestra
