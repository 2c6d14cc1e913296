// Summary statistics for experiment harnesses.
#pragma once

#include <cstddef>
#include <vector>

namespace lcs {

/// One-pass accumulator plus exact percentiles (keeps all samples).
class Stats {
 public:
  void add(double x);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double sum() const;
  double mean() const;
  double min() const;
  double max() const;
  /// Population standard deviation; 0 for fewer than 2 samples.
  double stddev() const;
  /// Percentile by linear interpolation between the two closest ranks
  /// (rank q/100 * (count - 1) over the sorted samples; q in [0,100]), so
  /// integer samples can yield a fractional percentile.
  double percentile(double q) const;
  double median() const { return percentile(50.0); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  void ensure_sorted() const;
};

}  // namespace lcs
