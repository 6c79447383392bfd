#include "core/wave_schedule.h"

#include <algorithm>
#include <bit>

#include "util/macros.h"

namespace pgrid {

uint32_t WaveSchedule::DenseId(PeerId peer) {
  if (peer >= dense_.size()) {
    dense_.resize(peer + 1, 0);
    stamp_.resize(peer + 1, 0);
  }
  if (stamp_[peer] != round_) {
    stamp_[peer] = round_;
    dense_[peer] = num_vertices_++;
  }
  return dense_[peer];
}

void WaveSchedule::Color(const std::vector<WaveEdge>& edges) {
  waves_.clear();
  num_edges_ = edges.size();
  max_degree_ = 0;
  if (edges.empty()) return;

  ++round_;
  if (round_ == 0) {  // stamp wraparound: invalidate every cached dense id
    std::fill(stamp_.begin(), stamp_.end(), 0);
    round_ = 1;
  }
  num_vertices_ = 0;
  const uint32_t n = static_cast<uint32_t>(edges.size());
  edge_u_.resize(n);
  edge_v_.resize(n);
  for (uint32_t e = 0; e < n; ++e) {
    PGRID_CHECK(edges[e].a != edges[e].b);
    edge_u_[e] = DenseId(edges[e].a);
    edge_v_[e] = DenseId(edges[e].b);
  }
  degree_.assign(num_vertices_, 0);
  for (uint32_t e = 0; e < n; ++e) {
    ++degree_[edge_u_[e]];
    ++degree_[edge_v_[e]];
  }
  max_degree_ = *std::max_element(degree_.begin(), degree_.end());

  // First fit never opens more than 2 * max_degree - 1 waves, so that many bits
  // per vertex always hold a free one for the next edge.
  const size_t words = (2 * max_degree_ - 1 + 63) / 64;
  used_.assign(static_cast<size_t>(num_vertices_) * words, 0);
  for (uint32_t e = 0; e < n; ++e) {
    uint64_t* u = &used_[edge_u_[e] * words];
    uint64_t* v = &used_[edge_v_[e] * words];
    size_t word = 0;
    while ((u[word] | v[word]) == ~uint64_t{0}) ++word;
    PGRID_DCHECK(word < words);
    const int bit = std::countr_one(u[word] | v[word]);
    u[word] |= uint64_t{1} << bit;
    v[word] |= uint64_t{1} << bit;
    // Every lower wave holds an earlier edge, so a new wave is always the next.
    const size_t w = word * 64 + static_cast<size_t>(bit);
    if (w == waves_.size()) waves_.emplace_back();
    waves_[w].push_back(e);
  }
}

}  // namespace pgrid
