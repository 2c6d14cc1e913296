// Repetition/warmup control around a scenario body, and the JSON record
// emitter (one machine-info-stamped record per scenario run).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "util/json.hpp"

namespace lcs::bench {

struct RepetitionTiming {
  double wall_ms = 0;
  double cpu_ms = 0;
};

struct ScenarioResult {
  std::string name;
  bool ok = false;
  std::string error;  ///< exception text when !ok
  std::vector<RepetitionTiming> timings;
  Json params = Json::object();   ///< parameters the body actually resolved
  Json metrics = Json::object();  ///< named metrics from the last repetition
  /// Floating-point metrics of every timed repetition (ScenarioContext::samples).
  std::vector<std::vector<std::pair<std::string, double>>> samples;
  bool resolved_n = false;        ///< body consumed the n sweep / pick_n
  bool resolved_beta = false;     ///< body consumed ctx.beta()
  bool resolved_seed = false;     ///< body consumed ctx.seed()
};

/// Runs `config.warmup` untimed + `config.repetitions` timed executions of
/// the scenario body.  Table output goes to `out` (first timed repetition
/// only, so repeated runs do not spam); a thrown exception fails the
/// scenario but not the process.
ScenarioResult run_scenario(const Scenario& scenario, const RunConfig& config,
                            std::ostream& out);

/// One schema-stable JSON record: {schema_version, scenario, description,
/// ok, error?, config, params, repetitions:[{wall_ms,cpu_ms}], metrics,
/// machine}.
Json result_to_json(const Scenario& scenario, const ScenarioResult& result,
                    const RunConfig& config);

}  // namespace lcs::bench
