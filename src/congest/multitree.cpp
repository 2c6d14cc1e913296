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
/// shared by every instance of a layout.  `pos[v]` is trusted only when it
/// points back at v, so stale entries of earlier instances need no
/// clearing.
class LocalIds {
 public:
  explicit LocalIds(const Graph& g) : pos_(g.num_vertices(), 0) {}

  /// Index `members`, rejecting an out-of-range or repeated vertex.
  void index(std::span<const VertexId> members) {
    members_ = members;
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
    return k < members_.size() && members_[k] == v ? k : kNoLocal;
  }

 private:
  std::vector<std::uint32_t> pos_;
  std::span<const VertexId> members_;
};

}  // namespace

// --- TreeLayout ------------------------------------------------------------------

TreeLayout::TreeLayout(const Graph& g, const std::vector<TreeInstanceSpec>& specs) {
  // Validation first, so the first invalid spec throws before anything is
  // indexed; resolving parents to local ids then shares one dense index.
  begin_.reserve(specs.size() + 1);
  for (const TreeInstanceSpec& s : specs) {
    validate_spec(g, s);
    begin_.push_back(begin_.back() + s.members.size());
  }
  root_local_.resize(specs.size());
  node_.resize(begin_.back());
  LocalIds ids(g);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TreeInstanceSpec& s = specs[i];
    ids.index(s.members);
    root_local_[i] = ids.find(s.root);
    for (std::uint32_t k = 0; k < s.members.size(); ++k) {
      Member& node = node_[begin_[i] + k];
      node = Member{s.members[k], kNoLocal, 0};
      if (s.parent[k] == graph::kNoVertex) continue;
      node.parent_local = ids.find(s.parent[k]);
      LCS_REQUIRE(node.parent_local != kNoLocal, "parent must be a member");
      node.up_slot = out_dir(g, s.parent_edge[k], s.members[k]);
    }
  }
  link_children();
}

TreeLayout::TreeLayout(const MultiBfsProgram& bfs) { assign(bfs); }

void TreeLayout::assign(const MultiBfsProgram& bfs) {
  const Graph& g = *bfs.g_;
  tree_local_.resize(g.num_vertices());
  begin_.assign(1, 0);
  root_local_.resize(bfs.inst_.size());
  node_.clear();
  for (std::size_t i = 0; i < bfs.inst_.size(); ++i) {
    const std::span<const MultiBfsProgram::State> state(
        bfs.state_.data() + bfs.inst_[i].state_base, bfs.inst_[i].size);
    std::uint32_t reached = 0;
    root_local_[i] = kNoLocal;
    for (const MultiBfsProgram::State& st : state) {
      if (st.dist == graph::kUnreached) continue;  // outside the tree
      if (st.dist == 0) root_local_[i] = reached;
      tree_local_[st.vertex] = reached++;
    }
    LCS_REQUIRE(root_local_[i] != kNoLocal, "every BFS instance must have started");
    for (const MultiBfsProgram::State& st : state) {
      if (st.dist == graph::kUnreached) continue;
      if (st.parent == graph::kNoVertex)
        node_.push_back(Member{st.vertex, kNoLocal, 0});
      else
        node_.push_back(Member{st.vertex, tree_local_[st.parent], st.up_slot});
    }
    begin_.push_back(node_.size());
  }
  link_children();
}

void TreeLayout::link_children() {
  // A counting sort by parent: each cursor ends at the next member's start
  // and is shifted back into place.
  child_off_.assign(node_.size() + 1, 0);
  for (std::size_t i = 0; i < num_instances(); ++i)
    for (std::size_t x = begin_[i]; x < begin_[i + 1]; ++x)
      if (node_[x].parent_local != kNoLocal) ++child_off_[begin_[i] + node_[x].parent_local + 1];
  for (std::size_t x = 0; x < node_.size(); ++x) child_off_[x + 1] += child_off_[x];
  child_.resize(child_off_.back());
  for (std::size_t i = 0; i < num_instances(); ++i)
    for (std::size_t x = begin_[i]; x < begin_[i + 1]; ++x)
      if (node_[x].parent_local != kNoLocal)
        child_[child_off_[begin_[i] + node_[x].parent_local]++] =
            Child{static_cast<std::uint32_t>(x - begin_[i]), node_[x].up_slot ^ 1};
  std::copy_backward(child_off_.begin(), child_off_.end() - 1, child_off_.end());
  child_off_[0] = 0;
}

// --- MultiConvergecastProgram -------------------------------------------------

namespace {
std::vector<std::uint64_t> spec_values(const std::vector<TreeInstanceSpec>& specs) {
  std::vector<std::uint64_t> values;
  for (const TreeInstanceSpec& s : specs) {
    LCS_REQUIRE(s.value.size() == s.members.size(), "convergecast needs a value per member");
    values.insert(values.end(), s.value.begin(), s.value.end());
  }
  return values;
}
}  // namespace

MultiConvergecastProgram::MultiConvergecastProgram(const Graph& g, const TreeLayout& layout,
                                                   const std::vector<std::uint64_t>& values,
                                                   Op op)
    : MultiConvergecastProgram(g, std::move(op)) {
  reset(layout, values);
}

MultiConvergecastProgram::MultiConvergecastProgram(const Graph& g,
                                                   const std::vector<TreeInstanceSpec>& specs,
                                                   Op op)
    : MultiConvergecastProgram(g, std::move(op)) {
  own_ = std::make_unique<const TreeLayout>(g, specs);
  reset(*own_, spec_values(specs));
}

MultiConvergecastProgram::MultiConvergecastProgram(const Graph& g, Op op)
    : own_(std::make_unique<const TreeLayout>()),
      layout_(own_.get()),
      op_(std::move(op)),
      queues_(g) {}

void MultiConvergecastProgram::reset(const TreeLayout& layout,
                                     std::span<const std::uint64_t> values) {
  LCS_REQUIRE(values.size() == layout.node_.size(), "convergecast needs a value per member");
  layout_ = &layout;
  queues_.clear();
  const TreeLayout& t = layout;
  acc_.resize(values.size());
  for (std::size_t x = 0; x < acc_.size(); ++x)
    acc_[x] = Acc{values[x], static_cast<std::uint32_t>(t.child_off_[x + 1] - t.child_off_[x]), 0};
  // Leaves queue at once (round 0 drains them), in instance and member
  // order: the order of the shared edge queues is part of the simulated
  // execution.
  for (std::size_t i = 0; i < t.num_instances(); ++i)
    for (std::size_t x = t.begin_[i]; x < t.begin_[i + 1]; ++x)
      maybe_enqueue_up(nullptr, i, static_cast<std::uint32_t>(x - t.begin_[i]));
}

void MultiConvergecastProgram::maybe_enqueue_up(NodeContext* ctx, std::size_t i,
                                                std::uint32_t local) {
  const std::size_t x = layout_->begin_[i] + local;
  Acc& a = acc_[x];
  const TreeLayout::Member& node = layout_->node_[x];
  if (a.sent || a.pending_children > 0) return;
  if (node.parent_local == kNoLocal) return;  // the root never sends
  Message m;
  m.algo = static_cast<std::uint32_t>(i);
  m.kind = kAggToken;
  m.a = a.value;
  m.b = node.parent_local;
  if (ctx != nullptr)
    queues_.send_or_push(*ctx, node.up_slot, m);
  else
    queues_.push(node.vertex, node.up_slot, m);
  a.sent = 1;
}

void MultiConvergecastProgram::on_round(NodeContext& ctx) {
  const VertexId v = ctx.node();
  const TreeLayout& t = *layout_;
  for (const Message& m : ctx.inbox()) {
    if (m.kind != kAggToken) continue;
    const std::size_t i = m.algo;
    const std::uint32_t local = static_cast<std::uint32_t>(m.b);
    const std::size_t x = t.begin_[i] + local;
    LCS_CHECK(x < t.begin_[i + 1] && t.node_[x].vertex == v,
              "aggregation token reached a non-member");
    Acc& a = acc_[x];
    a.value = op_(a.value, m.a);
    LCS_CHECK(a.pending_children > 0, "more reports than children");
    --a.pending_children;
    maybe_enqueue_up(&ctx, i, local);
  }
  queues_.drain(ctx);
}

std::uint64_t MultiConvergecastProgram::result(std::size_t i) const {
  LCS_REQUIRE(i < layout_->num_instances(), "instance out of range");
  return acc_[layout_->begin_[i] + layout_->root_local_[i]].value;
}

bool MultiConvergecastProgram::complete(std::size_t i) const {
  LCS_REQUIRE(i < layout_->num_instances(), "instance out of range");
  return acc_[layout_->begin_[i] + layout_->root_local_[i]].pending_children == 0;
}

// --- MultiBroadcastProgram ------------------------------------------------------

MultiBroadcastProgram::MultiBroadcastProgram(const Graph& g, const TreeLayout& layout,
                                             const std::vector<std::uint64_t>& root_values)
    : MultiBroadcastProgram(g) {
  reset(layout, root_values);
}

MultiBroadcastProgram::MultiBroadcastProgram(const Graph& g,
                                             const std::vector<TreeInstanceSpec>& specs,
                                             const std::vector<std::uint64_t>& root_values)
    : MultiBroadcastProgram(g) {
  own_ = std::make_unique<const TreeLayout>(g, specs);
  reset(*own_, root_values);
}

MultiBroadcastProgram::MultiBroadcastProgram(const Graph& g)
    : own_(std::make_unique<const TreeLayout>()), layout_(own_.get()), queues_(g) {}

void MultiBroadcastProgram::reset(const TreeLayout& layout,
                                  std::span<const std::uint64_t> root_values) {
  LCS_REQUIRE(root_values.size() == layout.num_instances(), "one root value per instance");
  layout_ = &layout;
  queues_.clear();
  got_.assign(layout.node_.size(), kMissing);
  received_.assign(layout.num_instances(), 0);
  for (std::size_t i = 0; i < layout.num_instances(); ++i)
    deliver(nullptr, i, layout.root_local_[i], root_values[i]);
}

void MultiBroadcastProgram::deliver(NodeContext* ctx, std::size_t i, std::uint32_t local,
                                    std::uint64_t value) {
  const TreeLayout& t = *layout_;
  const std::size_t x = t.begin_[i] + local;
  if (got_[x] != kMissing) return;
  got_[x] = value;
  ++received_[i];
  for (std::size_t c = t.child_off_[x]; c < t.child_off_[x + 1]; ++c) {
    Message m;
    m.algo = static_cast<std::uint32_t>(i);
    m.kind = kCastToken;
    m.a = value;
    m.b = t.child_[c].local;
    if (ctx != nullptr)
      queues_.send_or_push(*ctx, t.child_[c].slot, m);
    else
      queues_.push(t.node_[x].vertex, t.child_[c].slot, m);
  }
}

void MultiBroadcastProgram::on_round(NodeContext& ctx) {
  const VertexId v = ctx.node();
  const TreeLayout& t = *layout_;
  for (const Message& m : ctx.inbox()) {
    if (m.kind != kCastToken) continue;
    const std::size_t i = m.algo;
    const std::uint32_t local = static_cast<std::uint32_t>(m.b);
    const std::size_t x = t.begin_[i] + local;
    LCS_CHECK(x < t.begin_[i + 1] && t.node_[x].vertex == v,
              "broadcast token reached a non-member");
    deliver(&ctx, i, local, m.a);
  }
  queues_.drain(ctx);
}

std::uint64_t MultiBroadcastProgram::value_at(std::size_t i, VertexId v) const {
  LCS_REQUIRE(i < layout_->num_instances(), "instance out of range");
  // A linear scan: an after-the-run query, not on the message path.
  for (std::size_t x = layout_->begin(i); x < layout_->begin(i + 1); ++x)
    if (layout_->vertex(x) == v) return got_[x];
  return kMissing;
}

bool MultiBroadcastProgram::complete(std::size_t i) const {
  LCS_REQUIRE(i < layout_->num_instances(), "instance out of range");
  return received_[i] == layout_->begin_[i + 1] - layout_->begin_[i];
}

TreeInstanceSpec tree_spec_from_multibfs(const MultiBfsProgram& prog, std::size_t i) {
  LCS_REQUIRE(i < prog.inst_.size(), "instance out of range");
  const MultiBfsProgram::Instance& in = prog.inst_[i];
  TreeInstanceSpec s;
  for (std::uint32_t k = 0; k < in.size; ++k) {
    const MultiBfsProgram::State& st = prog.state_[in.state_base + k];
    if (st.dist == graph::kUnreached) continue;  // outside the tree
    s.members.push_back(st.vertex);
    s.parent.push_back(st.parent);
    s.parent_edge.push_back(st.up_slot == MultiBfsProgram::kNoSlot ? graph::kNoEdge
                                                                   : st.up_slot / 2);
    if (st.dist == 0) s.root = st.vertex;
  }
  s.value.assign(s.members.size(), 0);
  return s;
}

}  // namespace lcs::congest
