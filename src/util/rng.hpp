// Deterministic pseudo-random number generation.
//
// All randomized components of the library (edge sampling, random-delay
// scheduling, workload generators) draw from lcs::Rng so that every
// experiment is reproducible from a single 64-bit seed.  The generator is
// xoshiro256**, seeded via splitmix64 (the recommended pairing); it is
// much faster than std::mt19937_64 and has no observable bias for our
// uses (Bernoulli sampling, bounded uniforms, shuffles).
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace lcs {

/// splitmix64's state increment.
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64's output function (a bijective 64-bit mix).
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64 step; used for seeding and for cheap stateless hashing.
inline std::uint64_t splitmix64(std::uint64_t& state) { return mix64(state += kSplitmixGamma); }

/// Stateless 64-bit mix (one splitmix64 round applied to `x`).
inline std::uint64_t hash64(std::uint64_t x) { return mix64(x + kSplitmixGamma); }

/// xoshiro256** generator.  Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()();

  /// Uniform integer in [0, bound).  bound must be positive.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_in(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform_real();

  /// Uniform real in (0, 1): the zero draw (probability 2^-53) is rejected
  /// and redrawn, so -log of the result is always finite.  Use for
  /// exponential-clock keys instead of clamping.
  double uniform_real_positive();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Binomial(n, p) draw in O(1) expected time, independent of n: geometric-
  /// skip inversion while n*min(p,1-p) < 10 (expected n*p + 1 iterations),
  /// Hörmann's BTRS transformed rejection above it (expected ~1.15 rounds).
  /// Replaces n sequential bernoulli(p) draws wherever a whole capacity is
  /// thinned at once (sparsified_mincut's skeleton sampling).
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// `count` distinct values from [0, bound), in arbitrary order.
  std::vector<std::uint64_t> sample_distinct(std::uint64_t bound, std::size_t count);

  /// Derive an independent child generator (stable given the call index).
  Rng fork(std::uint64_t stream) const;

  /// Counter-based stream derivation: split(id) depends only on the seed
  /// this generator was constructed with and on `id` — not on how many
  /// values have been drawn since.  Parallel tasks that each take
  /// split(task_index) therefore observe identical streams at any thread
  /// count and in any execution order; fork() by contrast mixes in the
  /// current state, so it is stable only along a fixed draw sequence.
  Rng split(std::uint64_t stream_id) const;

  /// split() in two halves, for loops that derive many streams:
  /// split(id).seed() == split_seed(split_key(), hash64(id)), so a caller
  /// can mix each generator's half and each id's hash once and reuse them.
  std::uint64_t split_key() const { return hash64(seed_ ^ kSplitSalt); }
  static std::uint64_t split_seed(std::uint64_t split_key, std::uint64_t id_hash) {
    return hash64(split_key ^ id_hash);
  }

  /// Rng(seed).uniform_real_positive() without building the generator: the
  /// constructor's second splitmix64 step fills s_[1], and xoshiro256**'s
  /// first output reads s_[1] alone.  Only the zero draw (probability
  /// 2^-53) falls back to the real generator.
  static double first_uniform_real_positive(std::uint64_t seed) {
    const double u = unit_real(scramble(mix64(seed + 2 * kSplitmixGamma)));
    return u > 0.0 ? u : Rng(seed).uniform_real_positive();
  }

  /// The seed this generator was constructed from (the split() base).
  std::uint64_t seed() const { return seed_; }

 private:
  static constexpr std::uint64_t kSplitSalt = 0xa0761d6478bd642fULL;

  /// xoshiro256**'s output scrambler over the state word s_[1].
  static std::uint64_t scramble(std::uint64_t s1) { return std::rotl(s1 * 5, 7) * 9; }

  /// 53 high bits -> double in [0, 1).
  static double unit_real(std::uint64_t x) { return static_cast<double>(x >> 11) * 0x1.0p-53; }

  std::uint64_t seed_;
  std::uint64_t s_[4];
};

}  // namespace lcs
