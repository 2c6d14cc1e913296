// Shared machinery of the perfbench load generator: run configuration, sample
// statistics, the span tracer, process counters and the result record.
//
// lcsperf is one load-generating process.  Each workload runs a fixed
// amount of work derived from (--seed, --seconds) alone — nothing is sized
// or paced from measured host speed — verifies every output it can, and
// reports either the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/snapshot.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 20;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans (JSON lines)
  std::string work_dir;    ///< scratch directory for sockets and snapshot files
};

// -- statistics ----------------------------------------------------------------

/// Quantile of `v`, q in [0, 1] (lcs::Stats::percentile over a copy).
double quantile(const std::vector<double>& v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// A tail percentile is only meaningful with at least ten samples beyond it;
/// throws std::runtime_error naming `what` when `n` is too small for `q`.
void require_tail_samples(const std::string& what, std::size_t n, double q);

/// Tail percentile of samples taken while the host's speed drifts from one
/// fraction of a second to the next.  `v` holds samples in time order; each
/// is divided by the median of its block of `block` consecutive samples, and
/// the result is the q-quantile of these ratios, over all of `v`, times the
/// median of `v`.  A slow stretch of the host raises a whole block and its
/// median alike, so it leaves the ratios alone, while a sample slower than
/// its neighbours still lands in the tail.  `v` must hold ten samples
/// beyond q.
double drift_corrected_quantile(const std::string& what, std::vector<double> v,
                                std::size_t block, double q);

// -- tracing -------------------------------------------------------------------

/// One span: a call into a layer's public function, recorded by lcsperf
/// around that call.  Spans of one request share `request`.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::string layer;
  std::string name;
  std::uint64_t request = 0;
  double start_ms = 0.0;  ///< relative to the tracer's epoch
  double end_ms = 0.0;
  double duration_ms() const { return end_ms - start_ms; }
};

/// In-memory span recorder; disabled tracers record nothing and cost one
/// branch per call.  Single-threaded: only lcsperf's main thread records
/// spans.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Record a timed call; returns the span's id (0 when disabled).
  std::uint32_t record(const std::string& layer, const std::string& name, std::uint64_t request,
                       Clock::time_point start, Clock::time_point end, std::uint32_t parent = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus the part of it covered
  /// by its children.
  std::map<std::string, double> self_ms_by_layer() const;

  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// -- set-up ----------------------------------------------------------------------

/// A snapshot set up as the in-process workloads do it: built with the
/// partition-pool prewarm off, then warmed explicitly, so the two steps are
/// timed apart; the end state equals a default build.
struct WarmSnapshot {
  std::shared_ptr<const lcs::service::GraphSnapshot> snap;
  double build_ms = 0.0, warm_ms = 0.0;
};
WarmSnapshot build_warm_snapshot(const lcs::graph::Graph& g, Tracer& tr);

// -- CPU placement -----------------------------------------------------------------

/// Move every thread of the process to the next of the CPUs the process was
/// allowed at its first call, in turn.  lcsperf calls it once before any
/// thread exists (threads inherit the placement) and the workloads call it
/// at fixed points of their work, so each run spends equal shares of its
/// work on every CPU.  Each workload keeps one thread busy at a time, so
/// running all threads on one CPU loses no parallelism, and a hand-off
/// between threads on one CPU needs no cross-CPU wake-up, which on a
/// virtual machine can take milliseconds when the host is busy.  Rotating
/// rather than staying put averages out CPUs that run slower than the
/// others for minutes at a time.
void next_cpu();
/// How many CPUs next_cpu() rotates over (0 before its first call).
int rotated_cpus();

// -- process counters ------------------------------------------------------------

double peak_rss_mb();
double cpu_seconds();  ///< CPU time of the whole process, all threads (ns resolution)

// -- result record -----------------------------------------------------------------

/// What one run reports.  Metric names and units come from one table in
/// common.cpp (BENCHMARK.json lists the same names and units); set() throws
/// on a name that is not in it.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Context printed on the line before the result (not metrics).
  std::map<std::string, double> info;
  std::vector<std::string> notes;

  void set(const std::string& name, double value);
  void fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

/// The end-to-end figures every workload computes, from the untraced pass
/// and again from the traced pass (their difference is the tracing overhead).
struct EndToEnd {
  double qps = 0, p50 = 0, p99 = 0, cheap_p99 = 0, heavy_p50 = 0, ok_share = 0,
         slo_met_share = 0;
};

/// Set every end-to-end metric: `e`, the median set-up time and peak RSS.
void set_end_to_end(Report& r, const EndToEnd& e, const std::vector<double>& setup_ms);

/// Set the tracing-overhead metrics, zero-fill the per-layer metrics a
/// workload bypasses, add the self time per layer of `tracer`, and write its
/// spans.
void finish_trace(const Config& cfg, const Tracer& tracer, const EndToEnd& untraced,
                  const EndToEnd& traced, Report& r);

/// Print the info line and the final JSON result line.
void print_report(const Config& cfg, const Report& r);

/// Seeded sampling: whether `id` is in the 1/`every` share that `salt` selects.
bool picked(std::uint64_t seed, std::uint64_t id, std::uint64_t every, std::uint64_t salt);

// -- workloads -------------------------------------------------------------------------

Report run_mix_gnm(const Config& cfg);
Report run_route_rpc(const Config& cfg);

/// The streaming admission layer's per-layer metrics, from an open loop of
/// its own (admission.cpp); part of mix_gnm's traced run.
void measure_admission(const Config& cfg, Tracer& tr, Report& rep);

}  // namespace perfbench
