// Scenario registry for the unified `lcsbench` harness.
//
// Each experiment (E1..E14, ablations, micro) registers itself once with
// LCS_BENCH_SCENARIO(name, description, grid) { ...body(ctx)... } and the
// single lcsbench binary lists, selects, sweeps and times them uniformly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace lcs::bench {

/// CLI-driven overrides + run control shared by every scenario.
struct RunConfig {
  bool smoke = false;         ///< shrink instance sizes / trial counts
  unsigned repetitions = 1;   ///< timed repetitions of the whole scenario body
  unsigned warmup = 0;        ///< untimed, unrecorded leading repetitions
  bool quiet = false;         ///< suppress the scenario's table output
  std::optional<std::vector<std::uint32_t>> n_override;  ///< --n
  std::optional<double> beta_override;                   ///< --beta
  std::optional<std::uint64_t> seed_override;            ///< --seed
  std::optional<unsigned> threads;                       ///< --threads
};

/// Handed to a scenario body for each repetition.  Every accessor that
/// resolves a parameter (sweep sizes, beta, seed, trials) also records the
/// resolved value, so the JSON record reports the parameters actually used.
class ScenarioContext {
 public:
  ScenarioContext(const RunConfig& config, std::ostream& out);

  /// Instance sizes for n-sweeps; --n overrides, smoke mode shrinks.
  /// `param_name` is the key the sweep is recorded under (scenarios with
  /// several sweeps give each its own key so none is overwritten).
  std::vector<std::uint32_t> n_sweep();
  // param_name is const char* (not std::string) so brace-initialized sweep
  // lists cannot ambiguously match a std::string overload.
  std::vector<std::uint32_t> n_sweep(std::vector<std::uint32_t> defaults,
                                     const char* param_name = "n_sweep");
  /// Scenario-specific sweep with its own smoke profile (--n still wins).
  std::vector<std::uint32_t> n_sweep(std::vector<std::uint32_t> smoke_defaults,
                                     std::vector<std::uint32_t> full_defaults,
                                     const char* param_name = "n_sweep");

  /// Record (or overwrite) a scenario-specific parameter in the JSON record
  /// — e.g. the effective sizes after a scenario-side clamp.
  void param(const std::string& name, Json value);
  /// Single-n scenarios: `full` normally, `small` under smoke, --n[0] wins.
  std::uint32_t pick_n(std::uint32_t small, std::uint32_t full);

  unsigned trials();
  bool smoke() const { return config_.smoke; }
  double beta(double fallback);
  std::uint64_t seed(std::uint64_t fallback);

  /// Table/prose output stream (a null sink under --quiet).
  std::ostream& out() { return out_; }

  /// Record a named result metric into the JSON record (last repetition wins).
  void metric(const std::string& name, double value);
  void metric(const std::string& name, std::uint64_t value);
  void metric(const std::string& name, bool value);

  const Json& params() const { return params_; }
  const Json& metrics() const { return metrics_; }
  /// The floating-point metrics of this repetition in first-recorded order
  /// (last write per name wins): the runner's samples for min/median stats.
  const std::vector<std::pair<std::string, double>>& samples() const { return samples_; }

  /// Whether the body resolved each overridable parameter (used to warn
  /// when a CLI override was passed but the scenario never consumed it).
  bool resolved_n() const { return resolved_n_; }
  bool resolved_beta() const { return resolved_beta_; }
  bool resolved_seed() const { return resolved_seed_; }

 private:
  void record_param(const std::string& name, Json value);

  const RunConfig& config_;
  std::ostream& out_;
  Json params_ = Json::object();
  Json metrics_ = Json::object();
  std::vector<std::pair<std::string, double>> samples_;
  bool resolved_n_ = false;
  bool resolved_beta_ = false;
  bool resolved_seed_ = false;
};

using ScenarioFn = void (*)(ScenarioContext&);

struct Scenario {
  std::string name;
  std::string description;
  std::string grid;  ///< human-readable default parameter grid
  ScenarioFn fn = nullptr;
};

/// Global scenario registry (populated by static Registrar objects before
/// main() runs; scenario .cpp files are linked into the lcsbench binary
/// directly so no registration is dropped by the archiver).
class Registry {
 public:
  static Registry& instance();

  void add(Scenario s);
  /// All scenarios, sorted by name.
  std::vector<Scenario> scenarios() const;
  const Scenario* find(const std::string& name) const;

 private:
  std::vector<Scenario> scenarios_;
};

struct Registrar {
  Registrar(const char* name, const char* description, const char* grid, ScenarioFn fn);
};

}  // namespace lcs::bench

/// Defines and registers a scenario:
///   LCS_BENCH_SCENARIO(e2_congestion, "congestion = O(D k_D log n)",
///                      "D in {3..6} x n-sweep") { ... use ctx ... }
#define LCS_BENCH_SCENARIO(scenario_name, description, grid)                               \
  static void lcs_bench_body_##scenario_name(::lcs::bench::ScenarioContext& ctx);          \
  static const ::lcs::bench::Registrar lcs_bench_registrar_##scenario_name{                \
      #scenario_name, description, grid, &lcs_bench_body_##scenario_name};                 \
  static void lcs_bench_body_##scenario_name(::lcs::bench::ScenarioContext& ctx)
