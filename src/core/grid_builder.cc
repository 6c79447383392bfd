#include "core/grid_builder.h"

#include "util/macros.h"
#include "util/stopwatch.h"

namespace pgrid {

GridBuilder::GridBuilder(Grid* grid, ExchangeEngine* exchange,
                         MeetingScheduler* scheduler, Rng* rng)
    : grid_(grid), exchange_(exchange), scheduler_(scheduler), rng_(rng) {
  PGRID_CHECK(grid != nullptr && exchange != nullptr && scheduler != nullptr &&
              rng != nullptr);
  PGRID_CHECK_EQ(grid->size(), scheduler->num_peers());
}

BuildReport GridBuilder::BuildToAverageDepth(double target_avg_depth,
                                             uint64_t max_meetings) {
  Stopwatch watch;
  BuildReport report;
  const uint64_t exchanges_before = exchange_->num_exchanges();
  while (grid_->AveragePathLength() < target_avg_depth &&
         report.meetings < max_meetings) {
    Meeting m = scheduler_->Next(rng_);
    exchange_->Exchange(m.a, m.b);
    ++report.meetings;
  }
  report.exchanges = exchange_->num_exchanges() - exchanges_before;
  report.avg_path_length = grid_->AveragePathLength();
  report.converged = report.avg_path_length >= target_avg_depth;
  report.seconds = watch.ElapsedSeconds();
  return report;
}

BuildReport GridBuilder::BuildToFractionOfMaxDepth(double fraction,
                                                   uint64_t max_meetings) {
  PGRID_CHECK(fraction > 0.0 && fraction <= 1.0);
  const double target = fraction * static_cast<double>(exchange_->config().maxl);
  return BuildToAverageDepth(target, max_meetings);
}

}  // namespace pgrid
