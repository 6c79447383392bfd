#include "core/parallel_workload.h"

#include <algorithm>
#include <vector>

#include "core/search.h"
#include "key/key_path.h"
#include "sim/message_stats.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace pgrid {

ParallelQueryReport RunParallelQueries(Grid* grid, const OnlineModel* online,
                                       const ParallelQueryOptions& options) {
  PGRID_CHECK(grid != nullptr);
  PGRID_CHECK_GT(options.threads, 0u);
  PGRID_CHECK_GT(options.chunk_size, 0u);
  PGRID_CHECK_GT(options.key_length, 0u);

  Stopwatch watch;
  ParallelQueryReport report;
  report.queries = options.num_queries;
  if (options.num_queries == 0) return report;

  struct Chunk {
    uint64_t first = 0;  // global index of the chunk's first query
    uint64_t count = 0;
    MessageStats stats;
    uint64_t found = 0;
    uint64_t messages = 0;
  };
  const uint64_t num_chunks =
      (options.num_queries + options.chunk_size - 1) / options.chunk_size;
  std::vector<Chunk> chunks(num_chunks);
  for (uint64_t c = 0; c < num_chunks; ++c) {
    chunks[c].first = c * options.chunk_size;
    chunks[c].count =
        std::min<uint64_t>(options.chunk_size, options.num_queries - chunks[c].first);
  }

  // One busy sum per lane; a lane is the only writer of its own slot.
  report.lane_busy_ns.assign(options.threads, 0);
  ThreadPool pool(options.threads);
  pool.ParallelFor(chunks.size(), [&](size_t ci, size_t lane) {
    const uint64_t t_chunk = MonotonicNs();
    Chunk& chunk = chunks[ci];
    // One engine per chunk: its Rng is reseeded per query with the query's own
    // counter-derived stream, and its kQuery accounting lands in the chunk shard.
    Rng rng(0);
    SearchEngine engine(grid, online, &rng);
    engine.set_stats_sink(&chunk.stats);
    for (uint64_t q = 0; q < chunk.count; ++q) {
      rng.Reseed(DeriveStreamSeed(options.seed, chunk.first + q));
      const KeyPath key = KeyPath::Random(&rng, options.key_length);
      std::optional<PeerId> start = engine.RandomOnlinePeer();
      if (!start.has_value()) continue;
      QueryResult result = engine.Query(*start, key);
      if (result.found) ++chunk.found;
      chunk.messages += result.messages;
    }
    report.lane_busy_ns[lane] += MonotonicNs() - t_chunk;
  });

  // Ordered barrier merge: the grid ledger sees chunk shards in chunk order.
  for (Chunk& chunk : chunks) {
    grid->stats().MergeFrom(chunk.stats);
    report.found += chunk.found;
    report.messages += chunk.messages;
  }
  report.seconds = watch.ElapsedSeconds();
  report.queries_per_second =
      report.seconds > 0.0
          ? static_cast<double>(report.queries) / report.seconds
          : 0.0;
  // The pool join gives the happens-before edge on the lane sums.
  uint64_t busy = 0;
  for (uint64_t lane_ns : report.lane_busy_ns) busy += lane_ns;
  const double wall_ns = report.seconds * 1e9;
  report.utilization =
      wall_ns > 0.0 ? static_cast<double>(busy) /
                          (static_cast<double>(options.threads) * wall_ns)
                    : 0.0;
  return report;
}

}  // namespace pgrid
