// Tests for the lcsbench harness machinery: the JSON writer, scenario
// context parameter resolution/recording, the repetition runner, and the
// machine-info stamp.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>

#include "bench/machine.hpp"
#include "bench/registry.hpp"
#include "bench/runner.hpp"
#include "bench/timer.hpp"
#include "util/json.hpp"

namespace lcs {
namespace {

TEST(Json, ScalarsAndCompactDump) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(std::int64_t{-3}).dump(), "-3");
  EXPECT_EQ(Json(std::uint64_t{7}).dump(), "7");
  // Full uint64 range round-trips (seeds above INT64_MAX stay unsigned).
  EXPECT_EQ(Json(std::numeric_limits<std::uint64_t>::max()).dump(), "18446744073709551615");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["z"] = 1;
  j["a"] = 2;
  j["z"] = 3;  // overwrite keeps position
  EXPECT_EQ(j.dump(), "{\"z\":3,\"a\":2}");
  EXPECT_EQ(j.size(), 2u);
}

TEST(Json, NestedArraysAndPrettyPrint) {
  Json j = Json::object();
  j["xs"].push_back(1);
  j["xs"].push_back(2);
  EXPECT_EQ(j.dump(), "{\"xs\":[1,2]}");
  EXPECT_EQ(j.dump(2), "{\n  \"xs\": [\n    1,\n    2\n  ]\n}\n");
}

TEST(Json, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::object().dump(2), "{}\n");
  EXPECT_EQ(Json::array().dump(), "[]");
}

TEST(Json, ContainsLooksUpObjectKeys) {
  Json j = Json::object();
  j["present"] = 1;
  EXPECT_TRUE(j.contains("present"));
  EXPECT_FALSE(j.contains("absent"));
  EXPECT_FALSE(Json(42).contains("anything"));
  EXPECT_FALSE(Json::array().contains("anything"));
}

TEST(ScenarioContext, DefaultsAndSmokeShrink) {
  bench::RunConfig full;
  std::ostringstream os;
  bench::ScenarioContext ctx(full, os);
  EXPECT_EQ(ctx.n_sweep(), (std::vector<std::uint32_t>{512, 1024, 2048, 4096}));
  EXPECT_EQ(ctx.trials(), 3u);
  EXPECT_EQ(ctx.pick_n(100, 200), 200u);

  bench::RunConfig smoke;
  smoke.smoke = true;
  bench::ScenarioContext sctx(smoke, os);
  EXPECT_EQ(sctx.n_sweep(), (std::vector<std::uint32_t>{512, 1024}));
  EXPECT_EQ(sctx.trials(), 1u);
  EXPECT_EQ(sctx.pick_n(100, 200), 100u);
}

TEST(ScenarioContext, OverridesWinAndAreRecorded) {
  bench::RunConfig config;
  config.n_override = std::vector<std::uint32_t>{64, 128};
  config.beta_override = 0.5;
  config.seed_override = 99;
  std::ostringstream os;
  bench::ScenarioContext ctx(config, os);
  EXPECT_EQ(ctx.n_sweep({1, 2, 3}), (std::vector<std::uint32_t>{64, 128}));
  EXPECT_EQ(ctx.pick_n(100, 200), 64u);
  EXPECT_DOUBLE_EQ(ctx.beta(1.0), 0.5);
  EXPECT_EQ(ctx.seed(17), 99u);
  const std::string params = ctx.params().dump();
  EXPECT_NE(params.find("\"beta\":0.5"), std::string::npos) << params;
  EXPECT_NE(params.find("\"seed\":99"), std::string::npos) << params;
  EXPECT_NE(params.find("\"n_sweep\":[64,128]"), std::string::npos) << params;
}

bench::Scenario counting_scenario(int* runs) {
  static int* counter = nullptr;
  counter = runs;
  return bench::Scenario{"counting", "counts executions", "none", [](bench::ScenarioContext& ctx) {
                           ++*counter;
                           ctx.metric("answer", std::uint64_t{42});
                           ctx.out() << "body ran\n";
                         }};
}

TEST(Runner, RunsWarmupPlusRepetitionsAndRecordsTimings) {
  int runs = 0;
  const bench::Scenario s = counting_scenario(&runs);
  bench::RunConfig config;
  config.warmup = 2;
  config.repetitions = 3;
  std::ostringstream os;
  const bench::ScenarioResult result = bench::run_scenario(s, config, os);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(runs, 5);  // 2 warmup + 3 timed
  EXPECT_EQ(result.timings.size(), 3u);
  for (const auto& t : result.timings) {
    EXPECT_GE(t.wall_ms, 0.0);
    EXPECT_GE(t.cpu_ms, 0.0);
  }
  EXPECT_NE(result.metrics.dump().find("\"answer\":42"), std::string::npos);
  // Table output is shown once (first timed repetition), not 5 times.
  EXPECT_EQ(os.str(), "body ran\n");
}

TEST(Runner, ExceptionFailsScenarioNotProcess) {
  const bench::Scenario s{"throwing", "always throws", "none",
                          [](bench::ScenarioContext&) -> void {
                            throw std::runtime_error("boom");
                          }};
  bench::RunConfig config;
  std::ostringstream os;
  const bench::ScenarioResult result = bench::run_scenario(s, config, os);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "boom");
  EXPECT_TRUE(result.timings.empty());
}

TEST(Runner, JsonRecordHasSchemaFields) {
  int runs = 0;
  const bench::Scenario s = counting_scenario(&runs);
  bench::RunConfig config;
  config.smoke = true;
  config.beta_override = 0.25;
  std::ostringstream os;
  const bench::ScenarioResult result = bench::run_scenario(s, config, os);
  const Json record = bench::result_to_json(s, result, config);
  const std::string dump = record.dump();
  for (const char* key : {"\"schema_version\":1", "\"scenario\":\"counting\"", "\"ok\":true",
                          "\"config\":", "\"smoke\":true", "\"beta_override\":0.25",
                          "\"params\":", "\"repetitions\":", "\"wall_ms\":", "\"cpu_ms\":",
                          "\"metrics\":", "\"machine\":"}) {
    EXPECT_NE(dump.find(key), std::string::npos) << key << " missing from " << dump;
  }
}

TEST(Runner, JsonRecordCarriesMinAndMedianAcrossRepetitions) {
  static int rep = 0;
  rep = 0;
  const bench::Scenario s{"sampled", "records one timing per repetition", "none",
                          [](bench::ScenarioContext& ctx) {
                            const double values[] = {5.0, 2.0, 9.0, 4.0};
                            ctx.metric("leg_ms", values[rep++]);
                            ctx.metric("count", std::uint64_t{7});
                          }};
  bench::RunConfig config;
  config.repetitions = 4;
  std::ostringstream os;
  const bench::ScenarioResult result = bench::run_scenario(s, config, os);
  ASSERT_TRUE(result.ok);
  const std::string dump = bench::result_to_json(s, result, config).dump();
  EXPECT_NE(dump.find("\"repetition_stats\":{\"wall_ms\":{\"min\":"), std::string::npos)
      << dump;
  // Floating-point metrics only; the median of an even sample is the midpoint.
  EXPECT_NE(dump.find("\"metric_stats\":{\"leg_ms\":{\"min\":2,\"median\":4.5}}"),
            std::string::npos)
      << dump;
  // The plain metrics block still holds the last repetition's values.
  EXPECT_NE(dump.find("\"metrics\":{\"leg_ms\":4,\"count\":7}"), std::string::npos) << dump;
}

TEST(Machine, InfoHasStableSchema) {
  const Json info = bench::machine_info();
  const std::string dump = info.dump();
  for (const char* key : {"hostname", "os", "kernel", "arch", "cpu_model",
                          "hardware_threads", "compiler", "build_type", "timestamp_utc"}) {
    EXPECT_NE(dump.find("\"" + std::string(key) + "\":"), std::string::npos) << key;
  }
}

TEST(Timers, MeasureElapsedTime) {
  bench::MonotonicTimer wall;
  bench::CpuTimer cpu;
  volatile double sink = 0;
  for (int i = 0; i < 2'000'000; ++i) sink = sink + 1.0;
  EXPECT_GT(wall.elapsed_ms(), 0.0);
  EXPECT_GE(cpu.elapsed_ms(), 0.0);
  EXPECT_GT(bench::time_ns_per_op(1000, [&] { bench::do_not_optimize(sink); }), 0.0);
}

// Registry::add aborts on duplicate names (fail-fast at static-init time);
// that path is exercised by construction: every binary linking two scenarios
// with one name dies at startup, so no death test is needed here.
TEST(Registry, FindAndSortedListing) {
  auto& reg = bench::Registry::instance();
  // The registry is process-global and duplicate names abort, so stay
  // idempotent under --gtest_repeat: only add on the first execution.
  if (reg.find("zz_test_only") == nullptr) {
    const std::size_t before = reg.scenarios().size();
    reg.add(bench::Scenario{"zz_test_only", "test scenario", "none",
                            [](bench::ScenarioContext&) {}});
    EXPECT_EQ(reg.scenarios().size(), before + 1);
  }
  EXPECT_NE(reg.find("zz_test_only"), nullptr);
  EXPECT_EQ(reg.find("does_not_exist"), nullptr);
  const auto all = reg.scenarios();
  for (std::size_t i = 1; i < all.size(); ++i) EXPECT_LE(all[i - 1].name, all[i].name);
}

}  // namespace
}  // namespace lcs
