// lcsperf: the perfbench load generator.
//
//   lcsperf --workload <mix_gnm|route_rpc> --seed N --seconds S
//           --trace <0|1> [--spans FILE] [--work-dir DIR]
//
// Prints one info line and, as the last line, the JSON result record.  On
// any error it prints the reason to stderr and exits 1 without a result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lcsperf: %s\nusage: lcsperf --workload <mix_gnm|route_rpc> "
               "--seed N --seconds S --trace <0|1> [--spans FILE] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  cfg.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") cfg.workload = v;
    else if (a == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds")
      cfg.seconds = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    else if (a == "--trace") cfg.trace = v == "1";
    else if (a == "--spans") cfg.spans_path = v;
    else if (a == "--work-dir") cfg.work_dir = v;
    else usage(("unknown argument " + a).c_str());
  }
  if (cfg.seconds == 0) usage("--seconds must be positive");
  perfbench::next_cpu();  // threads started from here on inherit the placement
  try {
    perfbench::Report r;
    if (cfg.workload == "mix_gnm") r = perfbench::run_mix_gnm(cfg);
    else if (cfg.workload == "route_rpc") r = perfbench::run_route_rpc(cfg);
    else usage(("unknown workload '" + cfg.workload + "'").c_str());
    r.info["cpus"] = perfbench::rotated_cpus();
    perfbench::print_report(cfg, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcsperf: %s: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
