// Shared-randomness coin flips for the sampling construction.
//
// Step (2) of the centralized construction flips, for every directed edge
// (u, v) with u outside S_i, D independent coins of bias p — one per
// repetition — deciding membership of (u, v) in H_i.  We realise each coin
// as a hash of (seed, edge, direction, part, repetition): deterministic,
// reproducible, and *memoryless*, so the centralized sampler, the
// distributed simulation (where the seed is the broadcast shared
// randomness SR of [Gha15]) and the shortcut-tree analysis all observe the
// exact same coin outcomes without storing anything.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace lcs::core {

class CoinFlipper {
 public:
  CoinFlipper(std::uint64_t seed, double p) : seed_(seed) {
    LCS_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
    // Threshold comparison against the full 64-bit hash range.
    threshold_ = p >= 1.0 ? ~0ULL : static_cast<std::uint64_t>(p * 18446744073709551615.0);
    always_ = p >= 1.0;
  }

  double probability_threshold() const { return static_cast<double>(threshold_); }

  /// The coin for (directed edge, part, repetition).
  /// `direction` is 0 when the sampling endpoint is edge(e).u, 1 otherwise.
  bool flip(graph::EdgeId e, int direction, std::uint32_t part, std::uint32_t repetition) const {
    return flip_keyed(key(e, direction, part), repetition);
  }

  /// The first two of the coin's three hash levels, which depend only on
  /// (seed, directed edge, part): a sampler that flips every repetition of
  /// one directed edge computes this once and calls flip_keyed per repetition.
  std::uint64_t key(graph::EdgeId e, int direction, std::uint32_t part) const {
    std::uint64_t h = seed_;
    h = hash64(h ^ ((static_cast<std::uint64_t>(e) << 1) | static_cast<std::uint64_t>(direction)));
    return hash64(h ^ (static_cast<std::uint64_t>(part) * 0x9e3779b97f4a7c15ULL));
  }

  /// The coin for key(e, direction, part) and `repetition`: the last hash level.
  bool flip_keyed(std::uint64_t key, std::uint32_t repetition) const {
    return always_ || hash64(key ^ repetition) < threshold_;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t threshold_;
  bool always_ = false;
};

}  // namespace lcs::core
