#include "sssp/ch.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace lcs::sssp {

namespace {

// Lazy-deletion 4-ary min-heap over (key, vertex), ordered as the pair
// (key, vertex): ties break by vertex id, which is what makes settled counts
// deterministic across rebuilds.  Stale entries stay in the heap until they
// are popped, as with std::priority_queue; equal pairs are interchangeable,
// so every correct min-heap over this total order pops the same sequence
// of tops.  clear() keeps the storage for the next search.
template <typename Key>
class MinHeap {
 public:
  struct Item {
    Key key;
    VertexId v;
  };

  bool empty() const { return items_.empty(); }
  const Item& top() const { return items_.front(); }
  void clear() { items_.clear(); }

  void push(Key key, VertexId v) {
    const Item item{key, v};
    std::size_t i = items_.size();
    items_.push_back(item);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!less(item, items_[parent])) break;
      items_[i] = items_[parent];
      i = parent;
    }
    items_[i] = item;
  }

  Item pop() {
    const Item out = items_.front();
    const Item last = items_.back();
    items_.pop_back();
    const std::size_t size = items_.size();
    if (size == 0) return out;
    std::size_t i = 0;
    while (true) {
      const std::size_t first = i * kArity + 1;
      if (first >= size) break;
      const std::size_t end = std::min(first + kArity, size);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c)
        if (less(items_[c], items_[best])) best = c;
      if (!less(items_[best], last)) break;
      items_[i] = items_[best];
      i = best;
    }
    items_[i] = last;
    return out;
  }

 private:
  static constexpr std::size_t kArity = 4;

  static bool less(const Item& a, const Item& b) {
    return a.key < b.key || (a.key == b.key && a.v < b.v);
  }

  std::vector<Item> items_;
};

using DistHeap = MinHeap<std::uint64_t>;

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return (a == kInfDist || b == kInfDist) ? kInfDist : a + b;
}

// ---------------------------------------------------------------------------
// CH preprocessing
// ---------------------------------------------------------------------------

// One arc of the mutable contraction overlay.  `orig` marks arcs still
// representing an original edge of G at its own weight; shortcut insertion
// (or a shortcut undercutting a heavy direct edge) clears it.
struct OverlayArc {
  VertexId to = 0;
  std::uint64_t len = 0;
  bool orig = false;
};

// Per-vertex arc lists kept sorted by target id; symmetric (u->v iff v->u).
class ContractionOverlay {
 public:
  explicit ContractionOverlay(std::uint32_t n) : adj_(n) {}

  const std::vector<OverlayArc>& arcs(VertexId v) const { return adj_[v]; }

  void upsert(VertexId u, VertexId v, std::uint64_t len, bool orig) {
    auto& a = adj_[u];
    const auto it = std::lower_bound(
        a.begin(), a.end(), v, [](const OverlayArc& x, VertexId y) { return x.to < y; });
    if (it != a.end() && it->to == v) {
      if (len < it->len) {
        it->len = len;
        it->orig = orig;
      }
      return;
    }
    a.insert(it, OverlayArc{v, len, orig});
  }

  void erase(VertexId u, VertexId v) {
    auto& a = adj_[u];
    const auto it = std::lower_bound(
        a.begin(), a.end(), v, [](const OverlayArc& x, VertexId y) { return x.to < y; });
    if (it != a.end() && it->to == v) a.erase(it);
  }

  void clear(VertexId v) {
    std::vector<OverlayArc>().swap(adj_[v]);
  }

 private:
  std::vector<std::vector<OverlayArc>> adj_;
};

// The (settle- and hop-limited) witness Dijkstra, reused by every witness
// run of one build: one {dist, hop, stamp} record per vertex and one heap
// whose storage outlives the runs.
//
// A run stops as soon as every target is settled.  Settled labels are final
// (non-negative lengths pop in key order), so the targets read the labels
// that running on to the cutoff or the settle limit would leave them.  Runs
// advance the stamp by two: a record stamped `cur_` or `cur_ + 1` is
// labelled (or marked) in this run, and the low bit marks a target.
class WitnessSearch {
 public:
  explicit WitnessSearch(std::uint32_t n) : rec_(n) {}

  void run(const ContractionOverlay& ov, VertexId source, VertexId skip,
           std::span<const OverlayArc> targets, std::uint64_t cutoff, const ChOptions& opt) {
    next_run();
    for (const OverlayArc& arc : targets) rec_[arc.to] = {kInfDist, 0, cur_ + 1};
    std::size_t unsettled = targets.size();
    heap_.clear();
    label(source, 0, 0);
    heap_.push(0, source);
    std::uint32_t settled = 0;
    while (!heap_.empty()) {
      const auto [d, v] = heap_.pop();
      if (d > dist_at(v)) continue;  // stale entry
      if (d > cutoff) break;
      if (++settled > opt.witness_settle_limit) break;
      if (rec_[v].stamp == cur_ + 1 && --unsettled == 0) break;
      const std::uint32_t h = rec_[v].hop;
      if (opt.witness_hop_limit != 0 && h >= opt.witness_hop_limit) continue;
      for (const OverlayArc& arc : ov.arcs(v)) {
        if (arc.to == skip) continue;
        const std::uint64_t nd = d + arc.len;
        if (nd > cutoff) continue;
        if (nd < dist_at(arc.to)) {
          label(arc.to, nd, h + 1);
          heap_.push(nd, arc.to);
        }
      }
    }
  }

  std::uint64_t dist_at(VertexId v) const {
    return (rec_[v].stamp & ~1u) == cur_ ? rec_[v].dist : kInfDist;
  }

 private:
  struct Record {
    std::uint64_t dist = 0;
    std::uint32_t hop = 0;
    std::uint32_t stamp = 0;
  };

  void next_run() {
    if (cur_ >= UINT32_MAX - 3) {  // wrap: forget every old stamp
      for (Record& r : rec_) r.stamp = 0;
      cur_ = 0;
    }
    cur_ += 2;
  }

  void label(VertexId v, std::uint64_t d, std::uint32_t h) {
    Record& r = rec_[v];
    r.dist = d;
    r.hop = h;
    if ((r.stamp & ~1u) != cur_) r.stamp = cur_;  // keeps a target's mark
  }

  std::vector<Record> rec_;
  DistHeap heap_;
  std::uint32_t cur_ = 0;
};

struct CandidateShortcut {
  VertexId a = 0;
  VertexId b = 0;
  std::uint64_t len = 0;
};

class ChBuilder {
 public:
  ChBuilder(const Graph& g, WeightSpan w, const ChOptions& opt)
      : opt_(opt),
        n_(g.num_vertices()),
        overlay_(n_),
        witness_(n_),
        deleted_neighbors_(n_, 0),
        contracted_(n_, 0),
        up_(n_) {
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const graph::Edge ed = g.edge(e);
      LCS_REQUIRE(w[e] >= 0, "negative edge weight");
      const auto len = static_cast<std::uint64_t>(w[e]);
      overlay_.upsert(ed.u, ed.v, len, /*orig=*/true);
      overlay_.upsert(ed.v, ed.u, len, /*orig=*/true);
    }
  }

  ChIndex build() {
    ChIndex out;
    out.n = n_;
    out.rank.assign(n_, 0);
    // Lazy-update priority queue: recompute on pop, re-insert if the fresh
    // priority no longer beats the queue head.  Ties break by vertex id, so
    // the contraction order is a pure function of (g, w, opt).  A vertex
    // that wins is contracted with the plan of its fresh evaluation: the
    // overlay has not changed since.
    MinHeap<std::int64_t> queue;
    for (VertexId v = 0; v < n_; ++v) queue.push(priority(v), v);
    std::uint32_t next_rank = 0;
    while (!queue.empty()) {
      const VertexId v = queue.pop().v;
      if (contracted_[v] != 0) continue;
      const std::int64_t fresh = priority(v);
      if (!queue.empty() && fresh > queue.top().key) {
        queue.push(fresh, v);
        continue;
      }
      contract(v);
      out.rank[v] = next_rank++;
    }
    LCS_CHECK(next_rank == n_, "contraction did not cover every vertex");
    // Assemble the canonical CSR: arcs grouped by owner, sorted by target
    // (the overlay lists were already target-sorted).
    out.up_offsets.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (VertexId v = 0; v < n_; ++v) out.up_offsets[v + 1] = out.up_offsets[v] + up_[v].size();
    out.up_arcs.reserve(out.up_offsets[n_]);
    for (VertexId v = 0; v < n_; ++v) {
      out.up_arcs.insert(out.up_arcs.end(), up_[v].begin(), up_[v].end());
    }
    out.num_shortcuts = num_shortcuts_;
    return out;
  }

 private:
  // Witness-check every pair of current neighbours of `v` and record in
  // plan_ the pairs whose only remaining shortest route would run through
  // `v`; returns the edge-difference priority.
  std::int64_t priority(VertexId v) {
    const std::vector<OverlayArc>& nbrs = overlay_.arcs(v);
    plan_.clear();
    for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) {
      const OverlayArc& a = nbrs[i];
      const std::span<const OverlayArc> targets(nbrs.data() + i + 1, nbrs.size() - i - 1);
      std::uint64_t max_b = 0;
      for (const OverlayArc& b : targets) max_b = std::max(max_b, b.len);
      witness_.run(overlay_, a.to, v, targets, a.len + max_b, opt_);
      for (const OverlayArc& b : targets) {
        const std::uint64_t via = a.len + b.len;
        if (witness_.dist_at(b.to) > via) plan_.push_back({a.to, b.to, via});
      }
    }
    const auto needed = static_cast<std::int64_t>(plan_.size());
    const auto deg = static_cast<std::int64_t>(nbrs.size());
    return 2 * (needed - deg) + static_cast<std::int64_t>(deleted_neighbors_[v]);
  }

  // Contract `v` with the plan of priority(v), which must be the last
  // evaluation.  The shortcuts and erasures below touch only the lists of
  // v's neighbours, so v's own list stays valid until it is cleared.
  void contract(VertexId v) {
    const std::vector<OverlayArc>& nbrs = overlay_.arcs(v);
    up_[v].reserve(nbrs.size());
    for (const OverlayArc& a : nbrs) {
      up_[v].push_back(ChArc{a.to, a.len});
      if (!a.orig) ++num_shortcuts_;
    }
    for (const CandidateShortcut& c : plan_) {
      overlay_.upsert(c.a, c.b, c.len, /*orig=*/false);
      overlay_.upsert(c.b, c.a, c.len, /*orig=*/false);
    }
    for (const OverlayArc& a : nbrs) {
      overlay_.erase(a.to, v);
      ++deleted_neighbors_[a.to];
    }
    overlay_.clear(v);
    contracted_[v] = 1;
  }

  const ChOptions opt_;
  std::uint32_t n_;
  ContractionOverlay overlay_;
  WitnessSearch witness_;
  std::vector<std::uint32_t> deleted_neighbors_;
  std::vector<std::uint8_t> contracted_;
  std::vector<std::vector<ChArc>> up_;
  std::uint64_t num_shortcuts_ = 0;
  std::vector<CandidateShortcut> plan_;  // of the last priority() call
};

// ---------------------------------------------------------------------------
// Query labels
// ---------------------------------------------------------------------------

// Distance labels of both query directions in one open-addressing table
// (linear probing, at most half full).  A CH search touches a few hundred
// vertices of any graph, so a table that starts small and doubles on
// demand beats both O(n) arrays and a node-based hash map; the Dijkstra
// oracle shares it and pays per vertex it touches, not per vertex of G.
// An absent direction reads kInfDist.
//
// A slot belongs to the current search when its stamp equals the table's;
// begin() bumps the stamp, which empties every slot at once and keeps the
// capacity for the next search.
class QueryLabels {
 public:
  struct Entry {
    VertexId v;
    std::uint32_t stamp;  // shares the padding after v: still 24 bytes
    std::uint64_t dist[2];
  };

  QueryLabels() : slots_(kInitialSlots, kUnused) {}

  // Forget every label of the last search.
  void begin() {
    if (++stamp_ == 0) {  // wrap: no old stamp may survive
      for (Entry& e : slots_) e.stamp = 0;
      stamp_ = 1;
    }
    size_ = 0;
  }

  // The entry of v, inserted with both labels kInfDist when absent.  The
  // reference is valid until the next at() call.
  Entry& at(VertexId v) {
    std::size_t i = slot_of(v);
    while (slots_[i].stamp == stamp_) {
      if (slots_[i].v == v) return slots_[i];
      i = (i + 1) & (slots_.size() - 1);
    }
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      return at(v);
    }
    ++size_;
    slots_[i] = Entry{v, stamp_, {kInfDist, kInfDist}};
    return slots_[i];
  }

  std::size_t slots() const { return slots_.size(); }

 private:
  static constexpr std::size_t kInitialSlots = 256;
  static constexpr Entry kUnused{0, 0, {kInfDist, kInfDist}};  // stamp 0 is never current

  // Fibonacci hashing: the top log2(slots) bits of v times 2^64 / phi.
  std::size_t slot_of(VertexId v) const {
    return static_cast<std::size_t>((std::uint64_t{v} * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void grow() {
    std::vector<Entry> old(slots_.size() * 2, kUnused);
    old.swap(slots_);
    --shift_;
    for (const Entry& e : old) {
      if (e.stamp != stamp_) continue;
      std::size_t i = slot_of(e.v);
      while (slots_[i].stamp == stamp_) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = e;
    }
  }

  std::vector<Entry> slots_;
  int shift_ = 64 - std::countr_zero(kInitialSlots);
  std::size_t size_ = 0;
  std::uint32_t stamp_ = 0;  // slots start at stamp 0, so begin() must come first
};

}  // namespace

namespace detail {

// The memory behind a PointToPointScratch.
struct SearchState {
  QueryLabels labels;
  DistHeap pq[2];  // direction 0 searches from s, direction 1 from t

  void begin(VertexId s, VertexId t) {
    labels.begin();
    pq[0].clear();
    pq[1].clear();
    labels.at(s).dist[0] = 0;
    pq[0].push(0, s);
    labels.at(t).dist[1] = 0;
    pq[1].push(0, t);
  }
};

}  // namespace detail

PointToPointScratch::PointToPointScratch() : state_(std::make_unique<detail::SearchState>()) {}
PointToPointScratch::~PointToPointScratch() = default;
PointToPointScratch::PointToPointScratch(PointToPointScratch&&) noexcept = default;
PointToPointScratch& PointToPointScratch::operator=(PointToPointScratch&&) noexcept = default;

std::size_t PointToPointScratch::label_slots() const { return state_->labels.slots(); }

namespace {

PointToPointResult bidi_search(const Graph& g, WeightSpan w, VertexId s, VertexId t,
                               detail::SearchState& st) {
  LCS_REQUIRE(w.size() == g.num_edges(), "weight array size mismatch");
  LCS_REQUIRE(s < g.num_vertices() && t < g.num_vertices(), "vertex out of range");
  PointToPointResult out;
  if (s == t) {
    out.distance = 0;
    return out;
  }
  st.begin(s, t);
  std::uint64_t best = kInfDist;
  while (true) {
    const std::uint64_t top0 = st.pq[0].empty() ? kInfDist : st.pq[0].top().key;
    const std::uint64_t top1 = st.pq[1].empty() ? kInfDist : st.pq[1].top().key;
    if (sat_add(top0, top1) >= best) break;
    const int side = top0 <= top1 ? 0 : 1;
    const auto [d, v] = st.pq[side].pop();
    const QueryLabels::Entry& self = st.labels.at(v);
    if (d != self.dist[side]) continue;  // stale entry
    ++out.settled;
    if (self.dist[1 - side] != kInfDist) best = std::min(best, sat_add(d, self.dist[1 - side]));
    for (const graph::HalfEdge he : g.neighbors(v)) {
      const std::uint64_t nd = d + static_cast<std::uint64_t>(w[he.edge]);
      QueryLabels::Entry& label = st.labels.at(he.to);
      if (nd < label.dist[side]) {
        label.dist[side] = nd;
        st.pq[side].push(nd, he.to);
      }
      if (label.dist[1 - side] != kInfDist)
        best = std::min(best, sat_add(nd, label.dist[1 - side]));
    }
  }
  out.distance = best;
  return out;
}

PointToPointResult ch_search(const ChIndex& ch, VertexId s, VertexId t,
                             detail::SearchState& st) {
  LCS_REQUIRE(s < ch.n && t < ch.n, "vertex out of range");
  PointToPointResult out;
  if (s == t) {
    out.distance = 0;
    return out;
  }
  st.begin(s, t);
  std::uint64_t best = kInfDist;
  while (true) {
    const std::uint64_t top0 = st.pq[0].empty() ? kInfDist : st.pq[0].top().key;
    const std::uint64_t top1 = st.pq[1].empty() ? kInfDist : st.pq[1].top().key;
    // Upward searches cannot stop at top0+top1 >= best (the meeting vertex
    // may sit above both endpoints); each direction runs until its own
    // frontier passes the best candidate.
    if (std::min(top0, top1) >= best) break;
    // The popped key is the smaller top, so it is below best.
    const int side = top0 <= top1 ? 0 : 1;
    const auto [d, v] = st.pq[side].pop();
    const QueryLabels::Entry& self = st.labels.at(v);
    if (d != self.dist[side]) continue;  // stale entry
    ++out.settled;
    if (self.dist[1 - side] != kInfDist) best = std::min(best, sat_add(d, self.dist[1 - side]));
    // One pass over the up-arcs: stop at the first arc that stalls v (see
    // the header), relax the others.
    for (std::uint64_t i = ch.up_offsets[v]; i < ch.up_offsets[v + 1]; ++i) {
      const ChArc& arc = ch.up_arcs[i];
      std::uint64_t& label = st.labels.at(arc.to).dist[side];
      if (arc.len < d && label < d - arc.len) break;  // label + len < d: stalled
      const std::uint64_t nd = d + arc.len;
      if (nd >= label) continue;
      label = nd;
      st.pq[side].push(nd, arc.to);
    }
  }
  out.distance = best;
  return out;
}

}  // namespace

// The overloads without a scratch keep their search state on the stack, so
// a one-shot search allocates only its label table and heaps.
PointToPointResult bidirectional_dijkstra(const Graph& g, WeightSpan w, VertexId s, VertexId t,
                                          PointToPointScratch& scratch) {
  return bidi_search(g, w, s, t, *scratch.state_);
}

PointToPointResult bidirectional_dijkstra(const Graph& g, WeightSpan w, VertexId s,
                                          VertexId t) {
  detail::SearchState st;
  return bidi_search(g, w, s, t, st);
}

ChIndex build_ch(const Graph& g, WeightSpan w, const ChOptions& opt) {
  LCS_REQUIRE(w.size() == g.num_edges(), "weight array size mismatch");
  return ChBuilder(g, w, opt).build();
}

PointToPointResult ch_query(const ChIndex& ch, VertexId s, VertexId t,
                            PointToPointScratch& scratch) {
  return ch_search(ch, s, t, *scratch.state_);
}

PointToPointResult ch_query(const ChIndex& ch, VertexId s, VertexId t) {
  detail::SearchState st;
  return ch_search(ch, s, t, st);
}

}  // namespace lcs::sssp
