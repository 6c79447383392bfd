#include "sim/meeting_scheduler.h"

#include "util/macros.h"

namespace pgrid {

MeetingScheduler::MeetingScheduler(size_t num_peers) : num_peers_(num_peers) {
  PGRID_CHECK_GE(num_peers, 2u);
}

void MeetingScheduler::SetNumPeers(size_t n) {
  PGRID_CHECK_GE(n, 2u);
  num_peers_ = n;
}

Meeting MeetingScheduler::Next(Rng* rng) {
  PGRID_CHECK(rng != nullptr);
  const PeerId a = static_cast<PeerId>(rng->UniformIndex(num_peers_));
  PeerId b = static_cast<PeerId>(rng->UniformIndex(num_peers_));
  while (b == a) b = static_cast<PeerId>(rng->UniformIndex(num_peers_));
  return Meeting{a, b};
}

void MeetingScheduler::NextBatch(Rng* rng, size_t count, std::vector<Meeting>* out) {
  PGRID_CHECK(out != nullptr);
  out->reserve(out->size() + count);
  for (size_t i = 0; i < count; ++i) out->push_back(Next(rng));
}

}  // namespace pgrid
