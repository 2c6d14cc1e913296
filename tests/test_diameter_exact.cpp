// diameter_exact against a one-BFS-per-source oracle.  The library runs a
// bit-parallel BFS over blocks of 64 sources, so the sizes straddle the
// block boundaries (63/64/65, 128/129) and paths reach deep levels.  The
// suite is registered at LCS_THREADS=1 and 4: at 4 the source blocks fan
// out over the pool, and one test calls the kernel from inside parallel
// tasks, where it serializes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace lcs;
using graph::Graph;

std::uint32_t per_source_diameter(const Graph& g) {
  std::uint32_t best = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    best = std::max(best, graph::bfs(g, v).max_dist);
  return best;
}

struct Case {
  std::string name;
  Graph g;
};

std::vector<Case> diameter_cases() {
  std::vector<Case> out;
  Rng rng(0xd1a);
  for (const std::uint32_t n : {1u, 2u, 63u, 64u, 65u, 128u, 129u}) {
    const std::string k = std::to_string(n);
    out.push_back({"path" + k, graph::path_graph(n)});
    if (n >= 2) out.push_back({"star" + k, graph::star_graph(n)});
    if (n >= 3) out.push_back({"cycle" + k, graph::cycle_graph(n)});
    if (n >= 2) {
      const std::uint32_t max_m = n * (n - 1) / 2;
      out.push_back({"gnm_sparse" + k, graph::connected_gnm(n, std::min(n + n / 4, max_m), rng)});
      out.push_back({"gnm" + k, graph::connected_gnm(n, std::min(3 * n, max_m), rng)});
      out.push_back({"tree" + k, graph::random_tree(n, rng)});
    }
  }
  out.push_back({"path700", graph::path_graph(700)});
  out.push_back({"grid13x21", graph::grid_graph(13, 21)});
  out.push_back({"dumbbell30x70", graph::dumbbell_graph(30, 70)});
  for (int i = 0; i < 12; ++i) {
    const auto n = static_cast<std::uint32_t>(2 + rng.uniform(400));
    const auto m = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(std::uint64_t{n} * (n - 1) / 2, n - 1 + rng.uniform(2 * n)));
    out.push_back({"gnm_rand" + std::to_string(i), graph::connected_gnm(n, m, rng)});
  }
  return out;
}

TEST(DiameterExact, MatchesPerSourceBfs) {
  for (const Case& c : diameter_cases())
    EXPECT_EQ(graph::diameter_exact(c.g), per_source_diameter(c.g)) << c.name;
}

TEST(DiameterExact, SerialInsideParallelTasks) {
  const std::vector<Case> cases = diameter_cases();
  std::vector<std::uint32_t> got(cases.size(), 0);
  parallel_tasks(cases.size(), [&](std::size_t i) { got[i] = graph::diameter_exact(cases[i].g); });
  for (std::size_t i = 0; i < cases.size(); ++i)
    EXPECT_EQ(got[i], per_source_diameter(cases[i].g)) << cases[i].name;
}

}  // namespace
