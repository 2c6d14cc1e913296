#include "bench/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace lcs::bench {

ScenarioContext::ScenarioContext(const RunConfig& config, std::ostream& out)
    : config_(config), out_(out) {}

std::vector<std::uint32_t> ScenarioContext::n_sweep() {
  return n_sweep(config_.smoke ? std::vector<std::uint32_t>{512, 1024}
                               : std::vector<std::uint32_t>{512, 1024, 2048, 4096});
}

std::vector<std::uint32_t> ScenarioContext::n_sweep(std::vector<std::uint32_t> smoke_defaults,
                                                    std::vector<std::uint32_t> full_defaults,
                                                    const char* param_name) {
  return n_sweep(config_.smoke ? std::move(smoke_defaults) : std::move(full_defaults),
                 param_name);
}

std::vector<std::uint32_t> ScenarioContext::n_sweep(std::vector<std::uint32_t> defaults,
                                                    const char* param_name) {
  resolved_n_ = true;
  std::vector<std::uint32_t> ns =
      config_.n_override ? *config_.n_override : std::move(defaults);
  Json arr = Json::array();
  for (const auto n : ns) arr.push_back(std::uint64_t{n});
  record_param(param_name, std::move(arr));
  return ns;
}

void ScenarioContext::param(const std::string& name, Json value) {
  record_param(name, std::move(value));
}

std::uint32_t ScenarioContext::pick_n(std::uint32_t small, std::uint32_t full) {
  resolved_n_ = true;
  std::uint32_t n = config_.smoke ? small : full;
  if (config_.n_override && !config_.n_override->empty()) {
    n = config_.n_override->front();
    if (config_.n_override->size() > 1) {
      // Single-n scenario: surface the dropped sweep values instead of
      // silently pretending a multi-size sweep ran.
      Json unused = Json::array();
      for (std::size_t i = 1; i < config_.n_override->size(); ++i) {
        unused.push_back(std::uint64_t{(*config_.n_override)[i]});
      }
      record_param("n_unused_override_values", std::move(unused));
      out_ << "(note: single-n scenario; only --n front value " << n << " is used)\n";
    }
  }
  record_param("n", std::uint64_t{n});
  return n;
}

unsigned ScenarioContext::trials() {
  const unsigned t = config_.smoke ? 1 : 3;
  record_param("trials", std::uint64_t{t});
  return t;
}

double ScenarioContext::beta(double fallback) {
  resolved_beta_ = true;
  const double b = config_.beta_override.value_or(fallback);
  record_param("beta", b);
  return b;
}

std::uint64_t ScenarioContext::seed(std::uint64_t fallback) {
  resolved_seed_ = true;
  const std::uint64_t s = config_.seed_override.value_or(fallback);
  record_param("seed", s);
  return s;
}

void ScenarioContext::metric(const std::string& name, double value) {
  metrics_[name] = value;
  const auto it = std::find_if(samples_.begin(), samples_.end(),
                               [&](const auto& sample) { return sample.first == name; });
  if (it == samples_.end()) samples_.emplace_back(name, value);
  else it->second = value;
}
void ScenarioContext::metric(const std::string& name, std::uint64_t value) {
  metrics_[name] = value;
}
void ScenarioContext::metric(const std::string& name, bool value) { metrics_[name] = value; }

void ScenarioContext::record_param(const std::string& name, Json value) {
  params_[name] = std::move(value);
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

void Registry::add(Scenario s) {
  if (find(s.name) != nullptr) {
    // Fail fast at startup: a shadowed scenario would silently clobber the
    // other's BENCH_<name>.json record under --all --out-dir.
    std::fprintf(stderr, "lcsbench: duplicate scenario name '%s'\n", s.name.c_str());
    std::abort();
  }
  scenarios_.push_back(std::move(s));
}

std::vector<Scenario> Registry::scenarios() const {
  std::vector<Scenario> out = scenarios_;
  std::sort(out.begin(), out.end(),
            [](const Scenario& a, const Scenario& b) { return a.name < b.name; });
  return out;
}

const Scenario* Registry::find(const std::string& name) const {
  for (const Scenario& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Registrar::Registrar(const char* name, const char* description, const char* grid,
                     ScenarioFn fn) {
  Registry::instance().add(Scenario{name, description, grid, fn});
}

}  // namespace lcs::bench
