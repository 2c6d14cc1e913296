#include "bench/runner.hpp"

#include <algorithm>
#include <exception>
#include <ostream>
#include <sstream>

#include "bench/machine.hpp"
#include "bench/timer.hpp"

namespace lcs::bench {

namespace {

/// {"min": ..., "median": ...} of a non-empty sample.
Json min_median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  Json s = Json::object();
  s["min"] = xs.front();
  s["median"] = xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2;
  return s;
}

}  // namespace

ScenarioResult run_scenario(const Scenario& scenario, const RunConfig& config,
                            std::ostream& out) {
  ScenarioResult result;
  result.name = scenario.name;
  result.ok = true;

  const unsigned total = config.warmup + std::max(1u, config.repetitions);
  for (unsigned rep = 0; rep < total && result.ok; ++rep) {
    const bool timed = rep >= config.warmup;
    const bool show = timed && rep == config.warmup && !config.quiet;
    // Every repetition formats into a buffer (identical work per rep, so
    // timings stay comparable); only the first timed one is flushed to the
    // real stream — after the clocks stop, so terminal I/O is not timed.
    std::ostringstream body_out;
    ScenarioContext ctx(config, body_out);
    MonotonicTimer wall;
    CpuTimer cpu;
    try {
      scenario.fn(ctx);
    } catch (const std::exception& e) {
      result.ok = false;
      result.error = e.what();
    } catch (...) {
      result.ok = false;
      result.error = "unknown exception";
    }
    const RepetitionTiming timing{wall.elapsed_ms(), cpu.elapsed_ms()};
    if (timed && result.ok) {
      result.timings.push_back(timing);
      result.params = ctx.params();
      result.metrics = ctx.metrics();
      result.samples.push_back(ctx.samples());
      result.resolved_n = ctx.resolved_n();
      result.resolved_beta = ctx.resolved_beta();
      result.resolved_seed = ctx.resolved_seed();
    }
    if (show || (!result.ok && !config.quiet)) out << body_out.str();
  }
  return result;
}

Json result_to_json(const Scenario& scenario, const ScenarioResult& result,
                    const RunConfig& config) {
  Json j = Json::object();
  j["schema_version"] = std::int64_t{1};
  j["scenario"] = result.name;
  j["description"] = scenario.description;
  j["grid"] = scenario.grid;
  j["ok"] = result.ok;
  if (!result.ok) j["error"] = result.error;

  Json cfg = Json::object();
  cfg["smoke"] = config.smoke;
  cfg["repetitions"] = std::uint64_t{std::max(1u, config.repetitions)};
  cfg["warmup"] = std::uint64_t{config.warmup};
  if (config.n_override) {
    Json ns = Json::array();
    for (const auto n : *config.n_override) ns.push_back(std::uint64_t{n});
    cfg["n_override"] = std::move(ns);
  }
  if (config.beta_override) cfg["beta_override"] = *config.beta_override;
  if (config.seed_override) cfg["seed_override"] = *config.seed_override;
  if (config.threads) cfg["threads"] = std::uint64_t{*config.threads};
  j["config"] = std::move(cfg);

  j["params"] = result.params;

  Json reps = Json::array();
  for (const RepetitionTiming& t : result.timings) {
    Json r = Json::object();
    r["wall_ms"] = t.wall_ms;
    r["cpu_ms"] = t.cpu_ms;
    reps.push_back(std::move(r));
  }
  j["repetitions"] = std::move(reps);
  if (!result.timings.empty()) {
    // Spread across the timed repetitions: whole-body wall/cpu, then every
    // floating-point metric that each repetition recorded.
    std::vector<double> wall, cpu;
    for (const RepetitionTiming& t : result.timings) {
      wall.push_back(t.wall_ms);
      cpu.push_back(t.cpu_ms);
    }
    Json rep_stats = Json::object();
    rep_stats["wall_ms"] = min_median(std::move(wall));
    rep_stats["cpu_ms"] = min_median(std::move(cpu));
    j["repetition_stats"] = std::move(rep_stats);
    Json metric_stats = Json::object();
    for (const auto& named : result.samples.front()) {
      const std::string& name = named.first;
      std::vector<double> xs;
      for (const auto& rep : result.samples) {
        const auto it = std::find_if(rep.begin(), rep.end(),
                                     [&](const auto& sample) { return sample.first == name; });
        if (it != rep.end()) xs.push_back(it->second);
      }
      if (xs.size() == result.samples.size()) metric_stats[name] = min_median(std::move(xs));
    }
    j["metric_stats"] = std::move(metric_stats);
  }

  j["metrics"] = result.metrics;
  j["machine"] = machine_info();
  return j;
}

}  // namespace lcs::bench
