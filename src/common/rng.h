// Deterministic random number generation. Every source of randomness in the
// system (data generation, failure times, fault injection) flows through an
// explicitly seeded Rng so experiments are reproducible bit-for-bit.
#ifndef ORCHESTRA_COMMON_RNG_H_
#define ORCHESTRA_COMMON_RNG_H_

#include <cstdint>
#include <string>

namespace orchestra {

/// splitmix64-based PRNG: tiny state, excellent distribution, fully portable
/// across platforms (unlike std:: distributions, which vary by libstdc++).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ull) {}

  uint64_t NextU64() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n). Precondition: n > 0.
  uint64_t Uniform(uint64_t n) { return NextU64() % n; }

  /// Uniform in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform in [0, 1).
  double NextDouble() { return (NextU64() >> 11) * (1.0 / 9007199254740992.0); }

  bool OneIn(uint64_t n) { return Uniform(n) == 0; }

  /// Random lowercase-alpha string of length `len` (STBenchmark-style payload).
  std::string AlphaString(size_t len) {
    std::string s(len, 'a');
    for (auto& c : s) c = static_cast<char>('a' + Uniform(26));
    return s;
  }

  /// Derives an independent child stream; used to give each node/relation its
  /// own stream so insertion order does not perturb unrelated draws.
  Rng Fork(uint64_t salt) { return Rng(NextU64() ^ (salt * 0xD1B54A32D192ED03ull)); }

 private:
  uint64_t state_;
};

}  // namespace orchestra

#endif  // ORCHESTRA_COMMON_RNG_H_
