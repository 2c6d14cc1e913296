// Flat arrays behind karger_mincut's trials: one scratch per call, reused by
// every trial, and a radix order over the trial's (key, edge id) pairs that
// equals std::stable_sort's.  No static or thread-local state: Karger
// runs inside the service's pool tasks.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/weighted.hpp"

namespace lcs::mincut::detail {

using graph::EdgeId;
using graph::VertexId;

/// Ids 0..k-1 in the order std::stable_sort gives the pairs (keys[id], id),
/// written to `order`.  Every key must be positive and finite: then its IEEE
/// bit pattern orders like its value, so a stable LSD radix over the high 32
/// bits, fed in id order, sorts by (high bits, id), and one insertion pass
/// over runs of equal high bits finishes the order on the full key.
/// `items` and `spare` are scratch (resized here).
void key_order(std::span<const double> keys, std::vector<std::uint64_t>& items,
               std::vector<std::uint64_t>& spare, std::vector<EdgeId>& order);

/// The arrays of one karger_mincut call, sized once and reused by every
/// trial: edge-id hashes, keys and order, a flat union–find forest (union by
/// size, path halving) and the side marks of the last trial.
class KargerScratch {
 public:
  explicit KargerScratch(const graph::Graph& g);

  /// hash64(e) for every edge: the id half of Rng::split(e), shared by trials.
  std::vector<std::uint64_t> id_hash;
  std::vector<double> key;
  std::vector<std::uint64_t> items;
  std::vector<std::uint64_t> spare;
  std::vector<EdgeId> order;
  /// in_side[v] = 1 iff v is on vertex 0's side of the last trial's cut.
  std::vector<std::uint8_t> in_side;

  /// Every vertex back in its own set.
  void reset_forest();
  std::uint32_t num_sets() const { return num_sets_; }
  VertexId find(VertexId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(VertexId a, VertexId b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    --num_sets_;
  }

  /// The vertices marked in in_side, ascending.
  std::vector<VertexId> side() const;

 private:
  std::vector<VertexId> parent_;
  std::vector<std::uint32_t> size_;
  std::uint32_t num_sets_ = 0;
};

}  // namespace lcs::mincut::detail
