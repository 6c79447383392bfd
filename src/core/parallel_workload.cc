#include "core/parallel_workload.h"

#include <algorithm>
#include <vector>

#include "core/search.h"
#include "key/key_path.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace pgrid {

namespace {

/// Queries per pool work item: one SearchEngine each.
constexpr uint64_t kChunkSize = 64;

}  // namespace

ParallelQueryReport RunParallelQueries(Grid* grid, const OnlineModel* online,
                                       const ParallelQueryOptions& options) {
  PGRID_CHECK(grid != nullptr);
  PGRID_CHECK_GT(options.threads, 0u);
  PGRID_CHECK_GT(options.key_length, 0u);

  Stopwatch watch;
  ParallelQueryReport report;
  report.queries = options.num_queries;
  if (options.num_queries == 0) return report;

  struct Chunk {
    uint64_t first = 0;  // global index of the chunk's first query
    uint64_t count = 0;
    uint64_t found = 0;
    uint64_t messages = 0;
  };
  const uint64_t num_chunks = (options.num_queries + kChunkSize - 1) / kChunkSize;
  std::vector<Chunk> chunks(num_chunks);
  for (uint64_t c = 0; c < num_chunks; ++c) {
    chunks[c].first = c * kChunkSize;
    chunks[c].count =
        std::min<uint64_t>(kChunkSize, options.num_queries - chunks[c].first);
  }

  // One busy sum per lane; a lane is the only writer of its own slot.
  report.lane_busy_ns.assign(options.threads, 0);
  ThreadPool pool(options.threads);
  pool.ParallelFor(chunks.size(), [&](size_t ci, size_t lane) {
    const uint64_t t_chunk = MonotonicNs();
    Chunk& chunk = chunks[ci];
    // One engine per chunk: its Rng is reseeded per query with the query's own
    // counter-derived stream.
    Rng rng(0);
    SearchEngine engine(grid, online, &rng);
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

  for (const Chunk& chunk : chunks) {
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
