#include "util/rng.hpp"

#include <cmath>
#include <unordered_set>

namespace lcs {

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = scramble(s_[1]);
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  LCS_REQUIRE(bound > 0, "uniform() needs a positive bound");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_in(std::int64_t lo, std::int64_t hi) {
  LCS_REQUIRE(lo <= hi, "uniform_in() needs lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit range
  return lo + static_cast<std::int64_t>(uniform(span));
}

double Rng::uniform_real() { return unit_real((*this)()); }

double Rng::uniform_real_positive() {
  for (;;) {
    const double u = uniform_real();
    if (u > 0.0) return u;
  }
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_real() < p;
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // Sample the rarer outcome so the inversion loop below stays short.
  if (p > 0.5) return n - binomial(n, 1.0 - p);

  const double nd = static_cast<double>(n);
  const double np = nd * p;
  if (np < 10.0) {
    // Geometric-skip inversion ("second waiting time"): jump from success to
    // success by geometric gaps instead of testing every trial.  Expected
    // iterations: np + 1.
    const double log_q = std::log1p(-p);
    std::uint64_t k = 0;
    double consumed = 0.0;
    for (;;) {
      const double u = uniform_real_positive();
      consumed += std::floor(std::log(u) / log_q) + 1.0;
      if (consumed > nd) return k;
      ++k;
    }
  }

  // BTRS (Hörmann 1993, "The generation of binomial random variates"):
  // transformed rejection with a squeeze, valid for p <= 0.5 and np >= 10.
  // Expected number of rounds is ~1.15 independent of n and p.
  const double q = 1.0 - p;
  const double spq = std::sqrt(np * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = np + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double u_rv_r = 0.86 * v_r;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double lpq = std::log(p / q);
  const double m = std::floor((nd + 1.0) * p);  // the mode
  const double h = std::lgamma(m + 1.0) + std::lgamma(nd - m + 1.0);
  for (;;) {
    double v = uniform_real();
    double u;
    if (v <= u_rv_r) {
      // Inside the squeeze: accept without evaluating the density.
      u = v / v_r - 0.43;
      return static_cast<std::uint64_t>(
          std::floor((2.0 * a / (0.5 - std::abs(u)) + b) * u + c));
    }
    if (v >= v_r) {
      u = uniform_real() - 0.5;
    } else {
      u = v / v_r - 0.93;
      u = (u < 0.0 ? -0.5 : 0.5) - u;
      v = uniform_real() * v_r;
    }
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (k < 0.0 || k > nd) continue;
    v = v * alpha / (a / (us * us) + b);
    if (std::log(v) <=
        h - std::lgamma(k + 1.0) - std::lgamma(nd - k + 1.0) + (k - m) * lpq) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

std::vector<std::uint64_t> Rng::sample_distinct(std::uint64_t bound, std::size_t count) {
  LCS_REQUIRE(count <= bound, "cannot sample more distinct values than the range holds");
  // Dense range: partial Fisher–Yates; sparse: rejection with a hash set.
  if (bound <= 4 * count) {
    std::vector<std::uint64_t> all(bound);
    for (std::uint64_t i = 0; i < bound; ++i) all[i] = i;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(uniform(bound - i));
      std::swap(all[i], all[j]);
    }
    all.resize(count);
    return all;
  }
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::uint64_t> out;
  out.reserve(count);
  while (out.size() < count) {
    const std::uint64_t v = uniform(bound);
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

Rng Rng::fork(std::uint64_t stream) const {
  // Combine current state with the stream id through the mixer; the parent
  // generator is left untouched so forks are order-independent.
  return Rng(hash64(s_[0] ^ std::rotl(s_[3], 13) ^ hash64(stream)));
}

Rng Rng::split(std::uint64_t stream_id) const {
  // Counter-based: a pure function of (construction seed, stream id), so the
  // derived stream is identical no matter when — or on which thread — the
  // split happens.  Double mixing keeps adjacent stream ids uncorrelated.
  return Rng(split_seed(split_key(), hash64(stream_id)));
}

}  // namespace lcs
