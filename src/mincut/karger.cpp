#include "mincut/karger.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <utility>

#include "util/rng.hpp"

namespace lcs::mincut::detail {

void key_order(std::span<const double> keys, std::vector<std::uint64_t>& items,
               std::vector<std::uint64_t>& spare, std::vector<EdgeId>& order) {
  const std::size_t k = keys.size();
  items.resize(k);
  spare.resize(k);
  order.resize(k);
  // An item is (high 32 key bits, id), so its value orders by high bits,
  // then id.  Four byte passes over the high half, all histograms in one
  // sweep; a pass whose byte is the same in every item moves nothing.
  constexpr int kPasses = 4;
  std::array<std::array<std::uint32_t, 256>, kPasses> count{};
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t high = std::bit_cast<std::uint64_t>(keys[i]) >> 32;
    items[i] = high << 32 | i;
    for (int p = 0; p < kPasses; ++p) ++count[p][(high >> (8 * p)) & 0xff];
  }
  for (int p = 0; p < kPasses; ++p) {
    const int shift = 32 + 8 * p;
    std::array<std::uint32_t, 256>& bucket = count[p];
    if (k == 0 || bucket[(items[0] >> shift) & 0xff] == k) continue;
    std::uint32_t start = 0;
    for (std::uint32_t& c : bucket) start += std::exchange(c, start);
    for (const std::uint64_t item : items) spare[bucket[(item >> shift) & 0xff]++] = item;
    items.swap(spare);
  }
  // Only items with equal high bits can still be out of order: insert each
  // into its run by (full key, id).
  const auto before = [&](std::uint64_t a, std::uint64_t b) {
    const double ka = keys[static_cast<EdgeId>(a)];
    const double kb = keys[static_cast<EdgeId>(b)];
    return ka < kb || (ka == kb && a < b);
  };
  for (std::size_t i = 1; i < k; ++i) {
    const std::uint64_t item = items[i];
    std::size_t j = i;
    while (j > 0 && (items[j - 1] >> 32) == (item >> 32) && before(item, items[j - 1])) {
      items[j] = items[j - 1];
      --j;
    }
    items[j] = item;
  }
  for (std::size_t i = 0; i < k; ++i) order[i] = static_cast<EdgeId>(items[i]);
}

KargerScratch::KargerScratch(const graph::Graph& g)
    : id_hash(g.num_edges()),
      key(g.num_edges()),
      in_side(g.num_vertices()),
      parent_(g.num_vertices()),
      size_(g.num_vertices()) {
  for (EdgeId e = 0; e < g.num_edges(); ++e) id_hash[e] = hash64(e);
}

void KargerScratch::reset_forest() {
  std::iota(parent_.begin(), parent_.end(), VertexId{0});
  std::fill(size_.begin(), size_.end(), 1u);
  num_sets_ = static_cast<std::uint32_t>(parent_.size());
}

std::vector<VertexId> KargerScratch::side() const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < in_side.size(); ++v)
    if (in_side[v]) out.push_back(v);
  return out;
}

}  // namespace lcs::mincut::detail
