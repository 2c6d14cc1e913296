#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

double quantile(const std::vector<double>& v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  lcs::Stats s;
  for (const double x : v) s.add(x);
  return s.percentile(100.0 * q);
}

void require_tail_samples(const std::string& what, std::size_t n, double q) {
  const double beyond = (1.0 - q) * static_cast<double>(n);
  if (beyond + 1e-9 < 10.0)
    throw std::runtime_error(what + ": " + std::to_string(n) +
                             " samples leave fewer than 10 beyond the percentile");
}

double drift_corrected_quantile(const std::string& what, std::vector<double> v,
                                std::size_t block, double q) {
  require_tail_samples(what, v.size(), q);
  const double scale = median(v);
  for (std::size_t first = 0; first < v.size(); first += block) {
    const auto b = v.begin() + static_cast<std::ptrdiff_t>(first);
    const auto e = v.begin() + static_cast<std::ptrdiff_t>(std::min(first + block, v.size()));
    const double m = median(std::vector<double>(b, e));
    std::for_each(b, e, [m](double& x) { x /= m; });
  }
  return quantile(v, q) * scale;
}

// -- Tracer ------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::uint32_t Tracer::record(const std::string& layer, const std::string& name,
                             std::uint64_t request, Clock::time_point start,
                             Clock::time_point end, std::uint32_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.layer = layer;
  s.name = name;
  s.request = request;
  s.start_ms = ms_between(epoch_, start);
  s.end_ms = ms_between(epoch_, end);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  // Children of one parent never overlap (lcsperf records spans from one
  // thread), so the covered part is the sum of child durations.
  std::vector<double> covered(spans_.size() + 1, 0.0);
  for (const Span& s : spans_)
    if (s.parent != 0) covered[s.parent] += s.duration_ms();
  std::map<std::string, double> out;
  for (const Span& s : spans_)
    out[s.layer] += std::max(0.0, s.duration_ms() - covered[s.id]);
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  f << std::setprecision(6) << std::fixed;
  for (const Span& s : spans_) {
    f << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"layer\":\"" << s.layer
      << "\",\"name\":\"" << s.name << "\",\"request\":" << s.request
      << ",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms << "}\n";
  }
}

// -- set-up ------------------------------------------------------------------

WarmSnapshot build_warm_snapshot(const lcs::graph::Graph& g, Tracer& tr) {
  lcs::service::GraphSnapshot::Options opt;
  opt.prewarm_partition_pool = false;
  WarmSnapshot w;
  lcs::graph::Graph copy = g;
  const auto t0 = Clock::now();
  w.snap = lcs::service::GraphSnapshot::build(std::move(copy), opt);
  const auto t1 = Clock::now();
  w.snap->warm_partition_pool();
  const auto t2 = Clock::now();
  tr.record("snapshot", "GraphSnapshot::build", 0, t0, t1);
  tr.record("snapshot", "warm_partition_pool", 0, t1, t2);
  w.build_ms = ms_between(t0, t1);
  w.warm_ms = ms_between(t1, t2);
  return w;
}

// -- CPU placement -----------------------------------------------------------

namespace {

std::vector<int>& allowed_cpus() {
  static std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.push_back(c);
    return out;
  }();
  return cpus;
}

}  // namespace

void next_cpu() {
  static std::size_t turn = 0;
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[turn++ % cpus.size()], &set);
  // A thread that exits meanwhile just fails its call.
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task"))
    sched_setaffinity(std::stoi(task.path().filename().string()), sizeof set, &set);
}

int rotated_cpus() { return static_cast<int>(allowed_cpus().size()); }

// -- process counters --------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// -- metrics -----------------------------------------------------------------

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"qps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"cheap_latency_p99_ms", "ms"},
    {"heavy_latency_p50_ms", "ms"},
    {"ok_share", "share"},
    {"slo_met_share", "share"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"snapshot.build_ms", "ms"},
    {"snapshot.pool_warm_ms", "ms"},
    {"sssp.ch_build_ms", "ms"},
    {"sssp.ch_shortcuts", "count"},
    {"snapshot_format.save_ms", "ms"},
    {"snapshot_format.load_ms", "ms"},
    {"snapshot_format.file_mb", "MB"},
    {"artifact.partition_hit_ratio", "share"},
    {"artifact.partition_misses", "count"},
    {"artifact.sparsified_misses", "count"},
    {"kp.quality_ms_p50", "ms"},
    {"kp.build_ms_p50", "ms"},
    {"kp.shortcut_edges", "count"},
    {"mst.boruvka_ms_p50", "ms"},
    {"mst.rounds", "count"},
    {"mst.messages", "count"},
    {"mincut.sparsify_ms_p50", "ms"},
    {"mincut.skeleton_cut_ms_p50", "ms"},
    {"mincut.karger_ms_p50", "ms"},
    {"service.overhead_ms_p50", "ms"},
    {"sssp.ch_query_us_p50", "us"},
    {"sssp.settled_nodes_p50", "count"},
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"wire.batch_bytes", "bytes"},
    {"rpc.round_trip_ms_p50", "ms"},
    {"rpc.transport_ms_p50", "ms"},
    {"router.overhead_ms_p50", "ms"},
    {"router.attempts_per_query", "ratio"},
    {"admission.submit_us_p99", "us"},
    {"admission.queue_wait_ms_p50", "ms"},
    {"admission.queue_wait_ms_p99", "ms"},
    {"admission.waves", "count"},
    {"admission.mean_wave_size", "count"},
    {"admission.queue_depth_p99", "count"},
    {"admission.throttled_share", "share"},
    {"admission.journal_events", "count"},
    {"loadgen.lag_ms_p99", "ms"},
    {"process.cpu_per_wall", "ratio"},
    {"trace.overhead_qps", "1/s"},
    {"trace.overhead_latency_p50_ms", "ms"},
    {"self_ms.snapshot", "ms"},
    {"self_ms.snapshot_format", "ms"},
    {"self_ms.artifact", "ms"},
    {"self_ms.core", "ms"},
    {"self_ms.mst", "ms"},
    {"self_ms.mincut", "ms"},
    {"self_ms.sssp", "ms"},
    {"self_ms.service", "ms"},
    {"self_ms.wire", "ms"},
    {"self_ms.rpc", "ms"},
    {"self_ms.router", "ms"},
    {"self_ms.streaming", "ms"},
};

const char* unit_of(const std::string& name) {
  for (const MetricDef& m : kEndToEnd)
    if (name == m.name) return m.unit;
  for (const MetricDef& m : kPerLayer)
    if (name == m.name) return m.unit;
  return nullptr;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

}  // namespace

void Report::set(const std::string& name, double value) {
  if (unit_of(name) == nullptr) throw std::logic_error("unknown metric " + name);
  metrics[name] = value;
}

void set_end_to_end(Report& r, const EndToEnd& e, const std::vector<double>& setup_ms) {
  r.set("qps", e.qps);
  r.set("latency_p50_ms", e.p50);
  r.set("latency_p99_ms", e.p99);
  r.set("cheap_latency_p99_ms", e.cheap_p99);
  r.set("heavy_latency_p50_ms", e.heavy_p50);
  r.set("ok_share", e.ok_share);
  r.set("slo_met_share", e.slo_met_share);
  r.set("setup_s", median(setup_ms) / 1000.0);
  r.set("peak_rss_mb", peak_rss_mb());
}

void finish_trace(const Config& cfg, const Tracer& tracer, const EndToEnd& untraced,
                  const EndToEnd& traced, Report& r) {
  r.set("trace.overhead_qps", traced.qps - untraced.qps);
  r.set("trace.overhead_latency_p50_ms", traced.p50 - untraced.p50);
  for (const auto& [layer, ms] : tracer.self_ms_by_layer())
    if (layer != "bench") r.set("self_ms." + layer, ms);
  // Layers a workload bypasses did no work: their counts and times are 0.
  for (const MetricDef& m : kPerLayer) r.metrics.emplace(m.name, 0.0);
  r.info["spans"] = static_cast<double>(tracer.spans().size());
  if (!cfg.spans_path.empty()) tracer.write(cfg.spans_path);
}

bool picked(std::uint64_t seed, std::uint64_t id, std::uint64_t every, std::uint64_t salt) {
  return lcs::hash64(seed ^ salt ^ lcs::hash64(id)) % every == 0;
}

void print_report(const Config& cfg, const Report& r) {
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %u, \"trace\": %d",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
  for (const auto& [k, v] : r.info) std::printf(", \"%s\": %s", k.c_str(), json_number(v).c_str());
  std::printf("}\n");

  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    const auto it = r.metrics.find(m.name);
    if (it == r.metrics.end())
      throw std::logic_error(std::string("metric not produced: ") + m.name);
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << json_number(it->second)
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (cfg.trace)
    for (const MetricDef& m : kPerLayer) emit(m);
  else
    for (const MetricDef& m : kEndToEnd) emit(m);
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
