#include "core/parallel_builder.h"

#include <algorithm>
#include <utility>

#include "util/macros.h"
#include "util/stopwatch.h"

namespace pgrid {

ParallelGridBuilder::ParallelGridBuilder(Grid* grid, ExchangeEngine* exchange,
                                         MeetingScheduler* scheduler, Rng* master,
                                         const ParallelBuildOptions& options)
    : grid_(grid),
      exchange_(exchange),
      scheduler_(scheduler),
      master_(master),
      options_(options),
      pool_(options.threads),
      stream_base_(master != nullptr ? master->engine()() : 0) {
  PGRID_CHECK(grid != nullptr && exchange != nullptr && scheduler != nullptr &&
              master != nullptr);
  PGRID_CHECK_GT(options_.threads, 0u);
  PGRID_CHECK_GT(options_.batch_size, 0u);
  PGRID_CHECK_EQ(grid->size(), scheduler->num_peers());
  lanes_.resize(pool_.threads());
  if (options_.profile) {
    profile_ = std::make_unique<BuildProfile>();
    profile_->threads = pool_.threads();
  }
}

BuildReport ParallelGridBuilder::BuildToAverageDepth(double target_avg_depth,
                                                     uint64_t max_meetings) {
  Stopwatch watch;
  BuildReport report;
  const uint64_t exchanges_before = exchange_->num_exchanges();
  while (grid_->AveragePathLength() < target_avg_depth &&
         report.meetings < max_meetings) {
    const size_t batch = static_cast<size_t>(
        std::min<uint64_t>(options_.batch_size, max_meetings - report.meetings));
    // Schedule serially on the master stream. The schedule depends only on the
    // seed and the number of meetings drawn so far -- never on how earlier
    // batches were executed.
    std::vector<Meeting> meetings;
    meetings.reserve(batch);
    const uint64_t t_schedule = profile_ != nullptr ? MonotonicNs() : 0;
    scheduler_->NextBatch(master_, batch, &meetings);
    if (profile_ != nullptr) profile_->schedule_ns += MonotonicNs() - t_schedule;
    std::vector<WorkItem> items;
    items.reserve(batch);
    for (const Meeting& m : meetings) items.push_back({m.a, m.b, /*depth=*/0});
    RunBatch(std::move(items));
    ++batch_ordinal_;
    report.meetings += batch;
  }
  report.exchanges = exchange_->num_exchanges() - exchanges_before;
  report.avg_path_length = grid_->AveragePathLength();
  report.converged = report.avg_path_length >= target_avg_depth;
  report.seconds = watch.ElapsedSeconds();
  if (profile_ != nullptr) {
    profile_->total_ns += static_cast<uint64_t>(report.seconds * 1e9);
  }
  return report;
}

BuildReport ParallelGridBuilder::BuildToFractionOfMaxDepth(double fraction,
                                                           uint64_t max_meetings) {
  PGRID_CHECK(fraction > 0.0 && fraction <= 1.0);
  const double target = fraction * static_cast<double>(exchange_->config().maxl);
  return BuildToAverageDepth(target, max_meetings);
}

void ParallelGridBuilder::RunMeetings(const std::vector<Meeting>& meetings) {
  std::vector<WorkItem> items;
  items.reserve(meetings.size());
  for (const Meeting& m : meetings) {
    if (m.a == m.b) continue;
    items.push_back({m.a, m.b, /*depth=*/0});
  }
  if (items.empty()) return;
  RunBatch(std::move(items));
  ++batch_ordinal_;
}

void ParallelGridBuilder::EnsureSlots(size_t n) {
  while (slots_.size() < n) {
    slots_.push_back(
        std::make_unique<Slot>(DeriveStreamSeed(stream_base_, slots_.size())));
  }
}

void ParallelGridBuilder::RunBatch(std::vector<WorkItem> items) {
  const bool prof = profile_ != nullptr;
  std::vector<WorkItem> next;
  std::vector<WaveEdge> edges;
  while (!items.empty()) {
    // Color the round: every item lands in exactly one conflict-free wave, as a
    // pure function of the item list (core/wave_schedule.h).
    const uint64_t t_color = prof ? MonotonicNs() : 0;
    edges.clear();
    edges.reserve(items.size());
    for (const WorkItem& it : items) edges.push_back({it.a, it.b});
    schedule_.Color(edges);
    const uint64_t color_ns = prof ? MonotonicNs() - t_color : 0;

    next.clear();
    for (size_t w = 0; w < schedule_.num_waves(); ++w) {
      const std::vector<uint32_t>& wave = schedule_.wave(w);
      EnsureSlots(wave.size());

      WaveProfile* wp = nullptr;
      if (prof) {
        profile_->waves.emplace_back();
        wp = &profile_->waves.back();
        wp->batch = batch_ordinal_;
        wp->wave = wave_ordinal_++;
        wp->scheduled = items.size();
        wp->width = wave.size();
        if (w == 0) wp->color_ns = color_ns;
      }

      const uint64_t t_run = prof ? MonotonicNs() : 0;
      pool_.ParallelFor(wave.size(), [&](size_t i, size_t lane) {
        const uint64_t t_item = prof ? MonotonicNs() : 0;
        Slot& slot = *slots_[i];
        Lane& sink = lanes_[lane];
        ExchangeShard shard;
        shard.rng = &slot.rng;
        shard.deferred = &slot.deferred;
        const WorkItem& it = items[wave[i]];
        exchange_->ExchangeSharded(it.a, it.b, it.depth, &shard);
        sink.path_bits += shard.path_bits;
        if (prof) sink.busy_ns += MonotonicNs() - t_item;
      });

      uint64_t t_gather = 0;
      if (prof) {
        wp->run_ns = MonotonicNs() - t_run;
        // The pool join above is the happens-before edge; lanes are quiescent.
        wp->lane_busy_ns.resize(lanes_.size());
        for (size_t lane = 0; lane < lanes_.size(); ++lane) {
          wp->lane_busy_ns[lane] = lanes_[lane].busy_ns;
          lanes_[lane].busy_ns = 0;
        }
        t_gather = MonotonicNs();
      }

      // Wave barrier: only the recursion captures need ordering here. The
      // gather runs in slot order because it feeds the next round's item list
      // and therefore the next coloring -- it must be schedule-determined.
      for (size_t i = 0; i < wave.size(); ++i) {
        Slot& slot = *slots_[i];
        for (const PendingExchange& p : slot.deferred) {
          next.push_back({p.initiator, p.target, p.depth});
        }
        slot.deferred.clear();
      }
      if (prof) wp->merge_ns = MonotonicNs() - t_gather;
    }
    std::swap(items, next);
  }

  // Batch barrier: fold the lane path-bit sums into the grid. The sum is
  // commutative, so which lane ran which item (the only timing-dependent
  // quantity left) cannot affect the result. O(threads) serial work per batch.
  const uint64_t t_merge = prof ? MonotonicNs() : 0;
  uint64_t path_bits = 0;
  for (Lane& lane : lanes_) {
    path_bits += lane.path_bits;
    lane.path_bits = 0;
  }
  if (path_bits > 0) grid_->NotePathGrowth(path_bits);
  if (prof) profile_->merge_ns += MonotonicNs() - t_merge;
}

}  // namespace pgrid
