#include "congest/multitree.hpp"

#include <algorithm>

#include "congest/multibfs.hpp"
#include "util/check.hpp"

namespace lcs::congest {

namespace {
constexpr std::uint32_t kAggToken = 20;
constexpr std::uint32_t kCastToken = 21;
constexpr std::uint32_t kNoLocal = static_cast<std::uint32_t>(-1);

void validate_spec(const Graph& g, const TreeInstanceSpec& s) {
  LCS_REQUIRE(s.root < g.num_vertices(), "tree root out of range");
  LCS_REQUIRE(s.members.size() == s.parent.size() &&
                  s.members.size() == s.parent_edge.size(),
              "tree spec arrays must be parallel");
  bool root_seen = false;
  for (std::size_t k = 0; k < s.members.size(); ++k) {
    if (s.members[k] == s.root) {
      root_seen = true;
      LCS_REQUIRE(s.parent[k] == graph::kNoVertex, "root must have no parent");
    } else {
      LCS_REQUIRE(s.parent[k] != graph::kNoVertex, "non-root member needs a parent");
      LCS_REQUIRE(s.parent_edge[k] < g.num_edges(), "parent edge out of range");
      const graph::Edge ed = g.edge(s.parent_edge[k]);
      LCS_REQUIRE((ed.u == s.members[k] && ed.v == s.parent[k]) ||
                      (ed.v == s.members[k] && ed.u == s.parent[k]),
                  "parent edge must join a member to its parent");
    }
  }
  LCS_REQUIRE(root_seen, "members must include the root");
}

/// Resolves vertex ids to an instance's local ids through one dense array
/// shared by every instance of a program.  `pos[v]` is trusted only when
/// it points back at v, so stale entries of earlier instances need no
/// clearing.
class LocalIds {
 public:
  explicit LocalIds(const Graph& g) : pos_(g.num_vertices(), 0) {}

  /// Index `members`, rejecting an out-of-range or repeated vertex.
  void index(const std::vector<VertexId>& members) {
    members_ = &members;
    for (std::uint32_t k = 0; k < members.size(); ++k) {
      LCS_REQUIRE(members[k] < pos_.size(), "tree member out of range");
      const std::uint32_t seen = find(members[k]);
      LCS_REQUIRE(seen == kNoLocal || seen == k, "tree members must be distinct");
      pos_[members[k]] = k;
    }
  }

  /// Local id of `v` in the indexed members, or kNoLocal.
  std::uint32_t find(VertexId v) const {
    if (v >= pos_.size()) return kNoLocal;
    const std::uint32_t k = pos_[v];
    return k < members_->size() && (*members_)[k] == v ? k : kNoLocal;
  }

 private:
  std::vector<std::uint32_t> pos_;
  const std::vector<VertexId>* members_ = nullptr;
};

}  // namespace

// --- MultiConvergecastProgram -------------------------------------------------

MultiConvergecastProgram::MultiConvergecastProgram(const Graph& g,
                                                   const std::vector<TreeInstanceSpec>& specs,
                                                   Op op)
    : g_(&g), op_(std::move(op)), inst_(specs.size()), queues_(g) {
  // Per-instance validation and copies first, so the first invalid spec
  // throws before anything is indexed.  Resolving parents to local ids then
  // shares one dense index, and the leaf enqueue shares the per-edge queues
  // (their order is part of the simulated execution).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TreeInstanceSpec& s = specs[i];
    validate_spec(g, s);
    LCS_REQUIRE(s.value.size() == s.members.size(), "convergecast needs a value per member");
    Instance& in = inst_[i];
    in.members = s.members;
    in.parent_edge = s.parent_edge;
    in.acc = s.value;
    in.parent_local.assign(s.members.size(), kNoLocal);
    in.pending_children.assign(s.members.size(), 0);
    in.sent.assign(s.members.size(), 0);
  }
  LocalIds ids(g);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TreeInstanceSpec& s = specs[i];
    Instance& in = inst_[i];
    ids.index(in.members);
    in.root_local = ids.find(s.root);
    for (std::uint32_t k = 0; k < s.members.size(); ++k) {
      if (s.parent[k] == graph::kNoVertex) continue;
      const std::uint32_t p = ids.find(s.parent[k]);
      LCS_REQUIRE(p != kNoLocal, "parent must be a member");
      in.parent_local[k] = p;
      ++in.pending_children[p];
    }
  }
  // Leaves enqueue immediately (round 0 drains them).
  for (std::size_t i = 0; i < specs.size(); ++i)
    for (std::uint32_t k = 0; k < specs[i].members.size(); ++k) maybe_enqueue_up(i, k);
}

void MultiConvergecastProgram::maybe_enqueue_up(std::size_t i, std::uint32_t local) {
  Instance& in = inst_[i];
  if (in.sent[local] || in.pending_children[local] > 0) return;
  const std::uint32_t parent = in.parent_local[local];
  if (parent == kNoLocal) return;  // the root never sends
  Message m;
  m.algo = static_cast<std::uint32_t>(i);
  m.kind = kAggToken;
  m.a = in.acc[local];
  m.b = parent;
  queues_.push(in.members[local], in.parent_edge[local], m);
  in.sent[local] = 1;
}

void MultiConvergecastProgram::on_round(NodeContext& ctx) {
  const VertexId v = ctx.node();
  for (const Message& m : ctx.inbox()) {
    if (m.kind != kAggToken) continue;
    const std::size_t i = m.algo;
    Instance& in = inst_[i];
    const std::uint32_t local = static_cast<std::uint32_t>(m.b);
    LCS_CHECK(local < in.members.size() && in.members[local] == v,
              "aggregation token reached a non-member");
    in.acc[local] = op_(in.acc[local], m.a);
    LCS_CHECK(in.pending_children[local] > 0, "more reports than children");
    --in.pending_children[local];
    maybe_enqueue_up(i, local);
  }
  queues_.drain(ctx);
}

std::uint64_t MultiConvergecastProgram::result(std::size_t i) const {
  LCS_REQUIRE(i < inst_.size(), "instance out of range");
  return inst_[i].acc[inst_[i].root_local];
}

bool MultiConvergecastProgram::complete(std::size_t i) const {
  LCS_REQUIRE(i < inst_.size(), "instance out of range");
  return inst_[i].pending_children[inst_[i].root_local] == 0;
}

// --- MultiBroadcastProgram ------------------------------------------------------

MultiBroadcastProgram::MultiBroadcastProgram(const Graph& g,
                                             const std::vector<TreeInstanceSpec>& specs,
                                             const std::vector<std::uint64_t>& root_values)
    : g_(&g), inst_(specs.size()), queues_(g) {
  LCS_REQUIRE(root_values.size() == specs.size(), "one root value per instance");
  // Same split as the convergecast: validation and copies first, then the
  // child lists (through the shared dense index) and the root deliveries
  // (into the shared edge queues).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TreeInstanceSpec& s = specs[i];
    validate_spec(g, s);
    Instance& in = inst_[i];
    in.members = s.members;
    in.got.assign(s.members.size(), kMissing);
    in.child_offsets.assign(s.members.size() + 1, 0);
  }
  LocalIds ids(g);
  std::vector<std::uint32_t> root_local(specs.size());
  std::vector<std::uint32_t> parent;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TreeInstanceSpec& s = specs[i];
    Instance& in = inst_[i];
    ids.index(in.members);
    root_local[i] = ids.find(s.root);
    // Children lists as a CSR over parent local ids, each in member order.
    parent.assign(s.members.size(), kNoLocal);
    for (std::uint32_t k = 0; k < s.members.size(); ++k) {
      if (s.parent[k] == graph::kNoVertex) continue;
      parent[k] = ids.find(s.parent[k]);
      LCS_REQUIRE(parent[k] != kNoLocal, "parent must be a member");
      ++in.child_offsets[parent[k] + 1];
    }
    for (std::size_t k = 0; k < s.members.size(); ++k)
      in.child_offsets[k + 1] += in.child_offsets[k];
    in.children.resize(in.child_offsets.back());
    for (std::uint32_t k = 0; k < s.members.size(); ++k)
      if (parent[k] != kNoLocal)
        in.children[in.child_offsets[parent[k]]++] = {k, s.parent_edge[k]};
    // The fill advanced each start to the next list's start; shift back.
    for (std::size_t k = s.members.size(); k > 0; --k)
      in.child_offsets[k] = in.child_offsets[k - 1];
    in.child_offsets[0] = 0;
  }
  for (std::size_t i = 0; i < specs.size(); ++i) deliver(i, root_local[i], root_values[i]);
}

void MultiBroadcastProgram::deliver(std::size_t i, std::uint32_t local,
                                    std::uint64_t value) {
  Instance& in = inst_[i];
  if (in.got[local] != kMissing) return;
  in.got[local] = value;
  ++in.received;
  for (std::uint32_t c = in.child_offsets[local]; c < in.child_offsets[local + 1]; ++c) {
    const auto [child_local, edge] = in.children[c];
    Message m;
    m.algo = static_cast<std::uint32_t>(i);
    m.kind = kCastToken;
    m.a = value;
    m.b = child_local;
    queues_.push(in.members[local], edge, m);
  }
}

void MultiBroadcastProgram::on_round(NodeContext& ctx) {
  const VertexId v = ctx.node();
  for (const Message& m : ctx.inbox()) {
    if (m.kind != kCastToken) continue;
    const std::size_t i = m.algo;
    const std::uint32_t local = static_cast<std::uint32_t>(m.b);
    LCS_CHECK(local < inst_[i].members.size() && inst_[i].members[local] == v,
              "broadcast token reached a non-member");
    deliver(i, local, m.a);
  }
  queues_.drain(ctx);
}

std::uint64_t MultiBroadcastProgram::value_at(std::size_t i, VertexId v) const {
  LCS_REQUIRE(i < inst_.size(), "instance out of range");
  // A linear scan: an after-the-run query, not on the message path.
  const std::vector<VertexId>& members = inst_[i].members;
  const auto it = std::find(members.begin(), members.end(), v);
  return it == members.end() ? kMissing : inst_[i].got[it - members.begin()];
}

bool MultiBroadcastProgram::complete(std::size_t i) const {
  LCS_REQUIRE(i < inst_.size(), "instance out of range");
  return inst_[i].received == inst_[i].got.size();
}

TreeInstanceSpec tree_spec_from_multibfs(const MultiBfsProgram& prog, std::size_t i) {
  LCS_REQUIRE(i < prog.inst_.size(), "instance out of range");
  const MultiBfsProgram::Instance& in = prog.inst_[i];
  TreeInstanceSpec s;
  s.members.reserve(in.members.size());
  s.parent.reserve(in.members.size());
  s.parent_edge.reserve(in.members.size());
  for (std::size_t k = 0; k < in.members.size(); ++k) {
    if (in.dist[k] == graph::kUnreached) continue;  // outside the tree
    s.members.push_back(in.members[k]);
    s.parent.push_back(in.parent[k]);
    s.parent_edge.push_back(in.parent_edge[k]);
    if (in.dist[k] == 0) s.root = in.members[k];
  }
  s.value.assign(s.members.size(), 0);
  return s;
}

}  // namespace lcs::congest
