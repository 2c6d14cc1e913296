// Tests for the CONGEST simulator and its building-block programs, checked
// against centralized oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "congest/multibfs.hpp"
#include "congest/programs.hpp"
#include "congest/simulator.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sssp/sssp.hpp"
#include "util/rng.hpp"

namespace lcs::congest {
namespace {

using graph::Graph;

// --- simulator mechanics ------------------------------------------------------

/// Sends one message from vertex 0 on its first incident edge every round.
class PingProgram : public Program {
 public:
  explicit PingProgram(std::uint32_t sends) : sends_(sends) {}
  void on_round(NodeContext& ctx) override {
    if (ctx.node() != 0 || sent_ >= sends_) {
      received_ += std::count_if(ctx.inbox().begin(), ctx.inbox().end(),
                                 [](const Message& m) { return m.kind == 99; });
      return;
    }
    Message m;
    m.kind = 99;
    ctx.send(ctx.topology().neighbors(0)[0].edge, m);
    ++sent_;
  }
  std::uint32_t sent_ = 0;
  std::uint32_t sends_;
  std::int64_t received_ = 0;
};

TEST(Simulator, DeliversNextRoundAndQuiesces) {
  const Graph g = graph::path_graph(2);
  Simulator sim(g, 1);
  PingProgram p(3);
  const RunStats st = sim.run(p, 100);
  EXPECT_TRUE(st.completed);
  EXPECT_EQ(p.received_, 3);
  EXPECT_EQ(st.messages, 3u);
  EXPECT_LE(st.rounds, 6u);
  EXPECT_EQ(st.max_edge_load, 3u);
}

class FloodProgram : public Program {
 public:
  void on_round(NodeContext& ctx) override {
    if (ctx.node() == 0 && ctx.round() == 0) {
      const auto nbrs = ctx.topology().neighbors(0);
      Message m;
      m.kind = 1;
      ctx.send(nbrs[0].edge, m);
      // Second send on the same edge must violate capacity 1.
      EXPECT_THROW(ctx.send(nbrs[0].edge, m), std::invalid_argument);
    }
  }
};

TEST(Simulator, EnforcesEdgeCapacity) {
  const Graph g = graph::path_graph(2);
  Simulator sim(g, 1);
  FloodProgram p;
  sim.run(p, 4);
}

TEST(Simulator, LargerCapacityAllowsMore) {
  const Graph g = graph::path_graph(2);
  Simulator sim(g, 3);

  class Burst : public Program {
   public:
    void on_round(NodeContext& ctx) override {
      if (ctx.node() == 0 && ctx.round() == 0) {
        const EdgeId e = ctx.topology().neighbors(0)[0].edge;
        Message m;
        for (int i = 0; i < 3; ++i) ctx.send(e, m);
        EXPECT_EQ(ctx.remaining_capacity(e), 0u);
        EXPECT_THROW(ctx.send(e, m), std::invalid_argument);
      }
    }
  } p;
  const RunStats st = sim.run(p, 4);
  EXPECT_EQ(st.messages, 3u);
}

TEST(Simulator, MaxRoundsRespected) {
  const Graph g = graph::path_graph(2);
  Simulator sim(g, 1);
  PingProgram p(1000000);  // never finishes in 10 rounds
  const RunStats st = sim.run(p, 10);
  EXPECT_FALSE(st.completed);
  EXPECT_EQ(st.rounds, 10u);
}

TEST(Simulator, EdgeLoadIsPerRunOnAReusedSimulator) {
  // A BFS on a path sends one message over each edge direction it uses, so
  // every run's max load is 1, however many runs came before on the same
  // simulator.
  const Graph g = graph::path_graph(5);
  Simulator sim(g, 1);
  for (int run = 0; run < 3; ++run) {
    BfsProgram p(g.num_vertices(), 0);
    const RunStats st = sim.run(p, 100);
    EXPECT_TRUE(st.completed);
    EXPECT_EQ(st.max_edge_load, 1u) << "run " << run;
  }
  // A heavier run and then a lighter one: the lighter reports its own load.
  const Graph pair = graph::path_graph(2);
  Simulator ping(pair, 1);
  PingProgram heavy(3);
  EXPECT_EQ(ping.run(heavy, 100).max_edge_load, 3u);
  PingProgram light(1);
  EXPECT_EQ(ping.run(light, 100).max_edge_load, 1u);
}

TEST(Simulator, RejectsForeignEdgeSend) {
  const Graph g = graph::path_graph(3);  // edges 0-1, 1-2
  Simulator sim(g, 1);

  class Foreign : public Program {
   public:
    void on_round(NodeContext& ctx) override {
      if (ctx.node() == 0 && ctx.round() == 0) {
        // Edge 1 joins vertices 1 and 2; node 0 is not an endpoint.
        Message m;
        EXPECT_THROW(ctx.send(1, m), std::invalid_argument);
      }
    }
  } p;
  sim.run(p, 2);
}

// --- turn contract --------------------------------------------------------------

/// A flood whose nodes also ask for wakes, logging every turn, send and
/// wake request so a test can rebuild the turn set the contract promises.
class TurnProbe : public Program {
 public:
  explicit TurnProbe(const Graph& g) : g_(g), seen_(g.num_vertices(), false) {}

  void on_round(NodeContext& ctx) override {
    const graph::VertexId v = ctx.node();
    const std::uint32_t r = ctx.round();
    turns.emplace_back(r, v);
    if (r == 0 && v % 7 == 3) {
      ctx.wake_at(2 + v % 5);
      wakes.insert({2 + v % 5, v});
    }
    bool flood = r == 0 && v == 0;
    for (const Message& m : ctx.inbox()) {
      got[{r, v}] += 1;
      flood = flood || m.kind == 5;
    }
    flood = flood && !seen_[v];
    const bool woken = wakes.count({r, v}) != 0;
    fired_ += woken ? 1 : 0;
    if (flood) {
      seen_[v] = true;
      for (const graph::HalfEdge he : g_.neighbors(v)) send(ctx, he.edge);
    } else if (woken && g_.degree(v) > 0) {
      // A woken node sends once even with nothing to forward, so wakes
      // also create senders.
      send(ctx, g_.neighbors(v)[0].edge);
    }
  }
  bool idle() const override { return fired_ == wakes.size(); }

  std::vector<std::pair<std::uint32_t, graph::VertexId>> turns;
  // (round, sender) -> receivers of that round's sends.
  std::map<std::pair<std::uint32_t, graph::VertexId>, std::vector<graph::VertexId>> sends;
  std::set<std::pair<std::uint32_t, graph::VertexId>> wakes;
  std::map<std::pair<std::uint32_t, graph::VertexId>, int> got;

 private:
  void send(NodeContext& ctx, graph::EdgeId e) {
    Message m;
    m.kind = 5;
    ctx.send(e, m);
    sends[{ctx.round(), ctx.node()}].push_back(g_.other_endpoint(e, ctx.node()));
  }

  const Graph& g_;
  std::vector<bool> seen_;
  std::size_t fired_ = 0;
};

TEST(SimulatorTurns, OnlyReceiversSendersAndWakesGetTurnsAfterRoundZero) {
  Rng rng(77);
  const Graph g = graph::connected_gnm(40, 80, rng);
  TurnProbe p(g);
  Simulator sim(g, 1);
  const RunStats st = sim.run(p, 200);
  ASSERT_TRUE(st.completed);
  std::map<std::uint32_t, std::vector<graph::VertexId>> by_round;
  for (const auto& [r, v] : p.turns) by_round[r].push_back(v);
  ASSERT_EQ(by_round[0].size(), g.num_vertices());
  for (std::uint32_t r = 0; r < st.rounds; ++r) {
    const std::vector<graph::VertexId>& got = by_round[r];
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << "round " << r;
    EXPECT_EQ(std::set<graph::VertexId>(got.begin(), got.end()).size(), got.size())
        << "round " << r;
    if (r == 0) continue;
    std::set<graph::VertexId> want;
    for (const auto& [key, to] : p.sends) {
      if (key.first != r - 1) continue;
      want.insert(key.second);                 // sent last round
      want.insert(to.begin(), to.end());       // received this round
    }
    for (const auto& [wr, v] : p.wakes)
      if (wr == r) want.insert(v);             // asked for this round
    EXPECT_EQ(std::set<graph::VertexId>(got.begin(), got.end()), want) << "round " << r;
  }
  // Every message sent was seen by its receiver the next round.
  std::map<std::pair<std::uint32_t, graph::VertexId>, int> sent_to;
  for (const auto& [key, to] : p.sends)
    for (const graph::VertexId v : to) sent_to[{key.first + 1, v}] += 1;
  EXPECT_EQ(sent_to, p.got);
  EXPECT_FALSE(p.wakes.empty());
}

/// Two nodes ask for wakes in round 0 (one for the next round, one for a
/// later round); nothing is ever sent.  Busy until the later wake fires.
class WakeOnly : public Program {
 public:
  void on_round(NodeContext& ctx) override {
    turns.emplace_back(ctx.round(), ctx.node());
    if (ctx.round() == 0 && ctx.node() == 1) ctx.wake_at(1);
    if (ctx.round() == 0 && ctx.node() == 2) ctx.wake_at(6);
    if (ctx.round() == 6 && ctx.node() == 2) fired = true;
  }
  bool idle() const override { return fired; }
  std::vector<std::pair<std::uint32_t, graph::VertexId>> turns;
  bool fired = false;
};

TEST(SimulatorTurns, WakeFiresAtItsRoundWithNothingInFlight) {
  const Graph g = graph::path_graph(4);
  WakeOnly p;
  Simulator sim(g, 1);
  const RunStats st = sim.run(p, 100);
  EXPECT_TRUE(st.completed);
  EXPECT_TRUE(p.fired);
  EXPECT_EQ(st.messages, 0u);
  EXPECT_EQ(st.rounds, 7u);  // rounds 0..6 count while the program is busy
  const std::vector<std::pair<std::uint32_t, graph::VertexId>> want = {
      {0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 1}, {6, 2}};
  EXPECT_EQ(p.turns, want);
}

/// Asks for the current and for an earlier round from round 0 and from a
/// woken turn in round 3, recording each error text.
class PastWake : public Program {
 public:
  void on_round(NodeContext& ctx) override {
    if (ctx.node() != 0) return;
    if (ctx.round() == 0) {
      attempt(ctx, 0);
      ctx.wake_at(3);
    } else if (ctx.round() == 3) {
      attempt(ctx, 3);
      attempt(ctx, 2);
    }
  }
  bool idle() const override { return errors.size() == 3; }
  std::vector<std::string> errors;

 private:
  void attempt(NodeContext& ctx, std::uint32_t r) {
    try {
      ctx.wake_at(r);
      errors.push_back("no error");
    } catch (const std::invalid_argument& e) {
      errors.push_back(e.what());
    }
  }
};

TEST(SimulatorTurns, WakeForAPastOrCurrentRoundFailsWithOneText) {
  const Graph g = graph::path_graph(2);
  PastWake p;
  Simulator sim(g, 1);
  const RunStats st = sim.run(p, 10);
  EXPECT_TRUE(st.completed);
  ASSERT_EQ(p.errors.size(), 3u);
  EXPECT_NE(p.errors[0].find("wake_at needs a round after the current one"), std::string::npos)
      << p.errors[0];
  EXPECT_EQ(p.errors[1], p.errors[0]);
  EXPECT_EQ(p.errors[2], p.errors[0]);
}

/// Floods every edge in rounds 0 and 1, then in round 2 node 5 sends twice
/// on one edge: the second send throws after sends of that round are out.
class ThrowingFlood : public Program {
 public:
  void on_round(NodeContext& ctx) override {
    const std::uint32_t r = ctx.round();
    if (r > 2) return;
    for (const graph::HalfEdge he : ctx.topology().neighbors(ctx.node())) {
      Message m;
      m.kind = 1;  // the BfsProgram token kind: stale ones would be adopted
      m.a = 7;
      ctx.send(he.edge, m);
      if (r == 2 && ctx.node() == 5) ctx.send(he.edge, m);
    }
  }
};

TEST(SimulatorTurns, ReuseAfterOverCapacityThrowMatchesFreshSimulator) {
  Rng rng(5);
  const Graph g = graph::connected_gnm(30, 60, rng);
  Simulator reused(g, 1);
  ThrowingFlood bad;
  EXPECT_THROW(reused.run(bad, 10), std::invalid_argument);

  BfsProgram after(g.num_vertices(), 3);
  const RunStats got = reused.run(after, 100);
  Simulator fresh(g, 1);
  BfsProgram want_prog(g.num_vertices(), 3);
  const RunStats want = fresh.run(want_prog, 100);
  EXPECT_TRUE(got.completed);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(after.dist(), want_prog.dist());
  EXPECT_EQ(after.dist(), graph::bfs(g, 3).dist);
}

// --- BfsProgram ------------------------------------------------------------------

class BfsProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(BfsProgramTest, MatchesCentralizedBfs) {
  Rng rng(100 + GetParam());
  const Graph g = graph::connected_gnm(80, 160, rng);
  const graph::VertexId src = static_cast<graph::VertexId>(GetParam() % 80);
  BfsProgram prog(g.num_vertices(), src);
  Simulator sim(g, 1);
  const RunStats st = sim.run(prog, 1000);
  ASSERT_TRUE(st.completed);
  const graph::BfsResult want = graph::bfs(g, src);
  EXPECT_EQ(prog.dist(), want.dist);
  // Rounds ~ eccentricity plus constant bookkeeping slack.
  EXPECT_LE(st.rounds, want.max_dist + 3);
}

INSTANTIATE_TEST_SUITE_P(Sources, BfsProgramTest, ::testing::Values(0, 7, 31, 42, 79));

TEST(BfsProgram, TruncationMatchesCentralized) {
  const Graph g = graph::path_graph(12);
  BfsProgram prog(g.num_vertices(), 0, 5);
  Simulator sim(g, 1);
  sim.run(prog, 100);
  const graph::BfsResult want = graph::bfs_truncated(g, 0, 5);
  EXPECT_EQ(prog.dist(), want.dist);
}

TEST(BfsProgram, ParentsConsistent) {
  Rng rng(3);
  const Graph g = graph::connected_gnm(40, 90, rng);
  BfsProgram prog(g.num_vertices(), 5);
  Simulator sim(g, 1);
  sim.run(prog, 1000);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == 5) continue;
    ASSERT_NE(prog.parent()[v], graph::kNoVertex);
    EXPECT_EQ(prog.dist()[v], prog.dist()[prog.parent()[v]] + 1);
    EXPECT_EQ(g.other_endpoint(prog.parent_edge()[v], v), prog.parent()[v]);
  }
}

// --- tree programs ------------------------------------------------------------------

RootedTree tree_of(const Graph& g, graph::VertexId root) {
  return RootedTree::from_bfs(g, graph::bfs(g, root), root);
}

TEST(Convergecast, SumOverTree) {
  Rng rng(4);
  const Graph g = graph::connected_gnm(60, 120, rng);
  const RootedTree t = tree_of(g, 0);
  std::vector<std::uint64_t> values(g.num_vertices());
  std::uint64_t want = 0;
  for (std::size_t v = 0; v < values.size(); ++v) {
    values[v] = v * v + 1;
    want += values[v];
  }
  ConvergecastProgram prog(t, values, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  Simulator sim(g, 1);
  const RunStats st = sim.run(prog, 1000);
  ASSERT_TRUE(st.completed);
  EXPECT_EQ(prog.result(), want);
}

TEST(Convergecast, MaxOverTree) {
  Rng rng(5);
  const Graph g = graph::connected_gnm(50, 100, rng);
  const RootedTree t = tree_of(g, 7);
  std::vector<std::uint64_t> values(g.num_vertices());
  for (std::size_t v = 0; v < values.size(); ++v) values[v] = hash64(v) % 1000;
  ConvergecastProgram prog(t, values,
                           [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
  Simulator sim(g, 1);
  sim.run(prog, 1000);
  EXPECT_EQ(prog.result(), *std::max_element(values.begin(), values.end()));
}

TEST(Convergecast, RoundsBoundedByDepth) {
  const Graph g = graph::path_graph(30);
  const RootedTree t = tree_of(g, 0);
  std::vector<std::uint64_t> ones(30, 1);
  ConvergecastProgram prog(t, ones, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  Simulator sim(g, 1);
  const RunStats st = sim.run(prog, 1000);
  EXPECT_EQ(prog.result(), 30u);
  EXPECT_LE(st.rounds, 32u);
}

TEST(Broadcast, ReachesAllMembers) {
  Rng rng(6);
  const Graph g = graph::connected_gnm(70, 150, rng);
  const RootedTree t = tree_of(g, 3);
  BroadcastProgram prog(t, 0xabcdef);
  Simulator sim(g, 1);
  const RunStats st = sim.run(prog, 1000);
  ASSERT_TRUE(st.completed);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_TRUE(prog.received(v));
    EXPECT_EQ(prog.value_at(v), 0xabcdefu);
  }
}

TEST(PrefixAssign, RanksAreDfsConsistent) {
  Rng rng(7);
  const Graph g = graph::connected_gnm(60, 140, rng);
  const RootedTree t = tree_of(g, 0);
  std::vector<bool> flagged(g.num_vertices(), false);
  std::vector<graph::VertexId> chosen{2, 11, 17, 23, 42, 55};
  for (const auto v : chosen) flagged[v] = true;
  PrefixAssignProgram prog(t, flagged);
  Simulator sim(g, 1);
  const RunStats st = sim.run(prog, 2000);
  ASSERT_TRUE(st.completed);
  EXPECT_EQ(prog.total(), chosen.size());
  std::vector<std::uint32_t> ranks;
  for (const auto v : chosen) ranks.push_back(prog.rank(v));
  std::sort(ranks.begin(), ranks.end());
  for (std::size_t i = 0; i < ranks.size(); ++i) EXPECT_EQ(ranks[i], i);
  // Unflagged nodes must stay unranked.
  EXPECT_EQ(prog.rank(0) != graph::kUnreached, flagged[0]);
}

TEST(PrefixAssign, AllFlagged) {
  const Graph g = graph::path_graph(12);
  const RootedTree t = tree_of(g, 11);
  PrefixAssignProgram prog(t, std::vector<bool>(12, true));
  Simulator sim(g, 1);
  sim.run(prog, 200);
  EXPECT_EQ(prog.total(), 12u);
  std::vector<bool> seen(12, false);
  for (graph::VertexId v = 0; v < 12; ++v) {
    const auto r = prog.rank(v);
    ASSERT_LT(r, 12u);
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
}

TEST(PrefixAssign, NoneFlagged) {
  const Graph g = graph::path_graph(6);
  const RootedTree t = tree_of(g, 0);
  PrefixAssignProgram prog(t, std::vector<bool>(6, false));
  Simulator sim(g, 1);
  const RunStats st = sim.run(prog, 100);
  EXPECT_TRUE(st.completed);
  EXPECT_EQ(prog.total(), 0u);
}

// --- Bellman-Ford ---------------------------------------------------------------------

class BellmanFordTest : public ::testing::TestWithParam<int> {};

TEST_P(BellmanFordTest, MatchesDijkstra) {
  Rng rng(200 + GetParam());
  const Graph g = graph::connected_gnm(60, 140, rng);
  const graph::EdgeWeights w = graph::random_weights(g, 20, rng);
  const graph::VertexId src = static_cast<graph::VertexId>((7 * GetParam()) % 60);
  BellmanFordProgram prog(g, w, src);
  Simulator sim(g, 1);
  const RunStats st = sim.run(prog, 10000);
  ASSERT_TRUE(st.completed);
  const auto want = sssp::dijkstra(g, w, src);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(prog.dist()[v], want.dist[v]) << "v=" << v;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BellmanFordTest, ::testing::Values(0, 1, 2, 3, 4));

TEST(BellmanFord, RejectsNegativeWeights) {
  const Graph g = graph::path_graph(3);
  graph::EdgeWeights w{1, -2};
  EXPECT_THROW(BellmanFordProgram(g, w, 0), std::invalid_argument);
}

// --- MultiBfs -----------------------------------------------------------------------

TEST(MultiBfs, SingleInstanceMatchesPlainBfs) {
  Rng rng(8);
  const Graph g = graph::connected_gnm(50, 110, rng);
  std::vector<graph::EdgeId> all(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  std::vector<BfsInstanceSpec> specs(1);
  specs[0].root = 9;
  specs[0].edges = all;
  MultiBfsProgram prog(g, std::move(specs));
  Simulator sim(g, 1);
  const RunStats st = sim.run(prog, 5000);
  ASSERT_TRUE(st.completed);
  const graph::BfsResult want = graph::bfs(g, 9);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(prog.dist_of(0, v), want.dist[v]);
}

TEST(MultiBfs, RestrictedToSubNetwork) {
  const Graph g = graph::path_graph(10);
  // Instance sees only edges 0..4 (vertices 0..5).
  std::vector<BfsInstanceSpec> specs(1);
  specs[0].root = 0;
  specs[0].edges = {0, 1, 2, 3, 4};
  MultiBfsProgram prog(g, std::move(specs));
  Simulator sim(g, 1);
  sim.run(prog, 1000);
  EXPECT_EQ(prog.dist_of(0, 5), 5u);
  EXPECT_EQ(prog.dist_of(0, 6), graph::kUnreached);
}

TEST(MultiBfs, DepthCapRespected) {
  const Graph g = graph::path_graph(10);
  std::vector<graph::EdgeId> all(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  std::vector<BfsInstanceSpec> specs(1);
  specs[0].root = 0;
  specs[0].edges = all;
  specs[0].depth_cap = 3;
  MultiBfsProgram prog(g, std::move(specs));
  Simulator sim(g, 1);
  sim.run(prog, 1000);
  EXPECT_EQ(prog.dist_of(0, 3), 3u);
  EXPECT_EQ(prog.dist_of(0, 4), graph::kUnreached);
  EXPECT_EQ(prog.max_depth(0), 3u);
}

TEST(MultiBfs, StartDelayHonored) {
  const Graph g = graph::path_graph(6);
  std::vector<graph::EdgeId> all(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  std::vector<BfsInstanceSpec> specs(1);
  specs[0].root = 0;
  specs[0].edges = all;
  specs[0].start_round = 7;
  MultiBfsProgram prog(g, std::move(specs));
  Simulator sim(g, 1);
  const RunStats st = sim.run(prog, 1000);
  ASSERT_TRUE(st.completed);
  // 5 hops after a 7-round delay: last adoption at round >= 12.
  EXPECT_GE(prog.last_adoption_round(0), 12u);
  EXPECT_EQ(prog.dist_of(0, 5), 5u);
}

TEST(MultiBfs, DisjointInstancesRunInParallel) {
  // Two disjoint paths inside one graph: no interference.
  graph::GraphBuilder b(12);
  for (graph::VertexId v = 0; v + 1 < 6; ++v) b.add_edge(v, v + 1);
  for (graph::VertexId v = 6; v + 1 < 12; ++v) b.add_edge(v, v + 1);
  const Graph g = std::move(b).build();
  std::vector<BfsInstanceSpec> specs(2);
  specs[0].root = 0;
  specs[1].root = 6;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.edge(e).u < 6)
      specs[0].edges.push_back(e);
    else
      specs[1].edges.push_back(e);
  }
  MultiBfsProgram prog(g, std::move(specs));
  Simulator sim(g, 1);
  const RunStats st = sim.run(prog, 1000);
  ASSERT_TRUE(st.completed);
  EXPECT_EQ(prog.dist_of(0, 5), 5u);
  EXPECT_EQ(prog.dist_of(1, 11), 5u);
  EXPECT_LE(st.rounds, 10u);  // both finish in ~path length rounds
}

TEST(MultiBfs, SharedEdgeSerializesTraffic) {
  // K instances all rooted at vertex 0 of a single path: the first edge is
  // shared by all of them, so completion takes >= K rounds on it.
  const Graph g = graph::path_graph(4);
  std::vector<graph::EdgeId> all(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  const std::size_t K = 8;
  std::vector<BfsInstanceSpec> specs(K);
  for (auto& s : specs) {
    s.root = 0;
    s.edges = all;
  }
  MultiBfsProgram prog(g, std::move(specs));
  Simulator sim(g, 1);
  const RunStats st = sim.run(prog, 1000);
  ASSERT_TRUE(st.completed);
  for (std::size_t i = 0; i < K; ++i) EXPECT_EQ(prog.dist_of(i, 3), 3u);
  EXPECT_GE(st.rounds, K);                 // bandwidth-limited
  EXPECT_GE(st.max_edge_load, K);          // first edge carried all instances
}

TEST(MultiBfs, MembersIncludeRootAndEndpoints) {
  const Graph g = graph::path_graph(5);
  std::vector<BfsInstanceSpec> specs(1);
  specs[0].root = 4;
  specs[0].edges = {0};  // edge 0-1 only; root 4 is isolated in-instance
  MultiBfsProgram prog(g, std::move(specs));
  const auto& mem = prog.members(0);
  EXPECT_EQ(mem.size(), 3u);  // 0, 1 and the root 4
  Simulator sim(g, 1);
  const RunStats st = sim.run(prog, 100);
  EXPECT_TRUE(st.completed);
  EXPECT_EQ(prog.dist_of(0, 4), 0u);
  EXPECT_EQ(prog.dist_of(0, 0), graph::kUnreached);
}

TEST(MultiBfs, ResetRunsLikeAFreshProgram) {
  // One program reset three times (whole-graph instances, then local ones
  // only, then both again) must run each set exactly as a fresh program
  // does: rounds, messages, loads, distances, parents and parent edges.
  Rng rng(0x7e5e7);
  const Graph g = graph::connected_gnm(60, 150, rng);
  std::vector<graph::EdgeId> all(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  const std::vector<graph::EdgeId> half(all.begin(), all.begin() + 70);
  const std::vector<std::vector<BfsInstanceSpec>> sets = {
      {{0, all, graph::kUnreached, 0}, {31, all, graph::kUnreached, 2}, {5, half, 3, 1}},
      {{7, half, graph::kUnreached, 0}, {8, {}, graph::kUnreached, 0}},
      {{59, all, graph::kUnreached, 1}, {2, half, graph::kUnreached, 0}},
  };
  MultiBfsProgram reused(g);
  Simulator sim(g, 1);
  for (std::size_t s = 0; s < sets.size(); ++s) {
    std::vector<BfsInstanceView> views;
    for (const BfsInstanceSpec& spec : sets[s])
      views.push_back({spec.root, spec.edges, spec.depth_cap, spec.start_round});
    reused.reset(views);
    const RunStats got = sim.run(reused, 1000);
    MultiBfsProgram fresh(g, sets[s]);
    Simulator fresh_sim(g, 1);
    const RunStats want = fresh_sim.run(fresh, 1000);
    ASSERT_TRUE(got.completed) << "set " << s;
    EXPECT_EQ(got.rounds, want.rounds) << "set " << s;
    EXPECT_EQ(got.messages, want.messages) << "set " << s;
    EXPECT_EQ(got.max_edge_load, want.max_edge_load) << "set " << s;
    ASSERT_EQ(reused.num_instances(), fresh.num_instances());
    for (std::size_t i = 0; i < fresh.num_instances(); ++i) {
      for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(reused.dist_of(i, v), fresh.dist_of(i, v)) << "set " << s << " i " << i;
        EXPECT_EQ(reused.parent_of(i, v), fresh.parent_of(i, v)) << "set " << s << " i " << i;
        EXPECT_EQ(reused.parent_edge_of(i, v), fresh.parent_edge_of(i, v))
            << "set " << s << " i " << i;
      }
    }
  }
}

TEST(MultiBfs, ResetRejectsUnsortedOrRepeatedEdges) {
  const Graph g = graph::path_graph(5);
  MultiBfsProgram prog(g);
  for (const std::vector<graph::EdgeId>& edges :
       {std::vector<graph::EdgeId>{2, 1}, std::vector<graph::EdgeId>{1, 1}}) {
    const BfsInstanceView view{0, edges, graph::kUnreached, 0};
    try {
      prog.reset({&view, 1});
      FAIL() << "edges " << edges[0] << ", " << edges[1] << " were accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("instance edges must be ascending and distinct"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace lcs::congest
