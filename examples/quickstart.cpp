// Quickstart: build a P-Grid, publish data, and search it.
//
// This walks the full public API surface in ~100 lines:
//   1. create a community of peers (Grid),
//   2. let them self-organize through random meetings (ExchangeEngine/GridBuilder),
//   3. publish data items and their index entries,
//   4. route queries through the grid (SearchEngine),
//   5. inspect structure statistics (GridStats) and check the structure
//      (check::GridInvariants).
//
// Run: ./quickstart [--peers=256] [--maxl=5] [--seed=1]

#include <cstdio>

#include "check/invariants.h"
#include "core/exchange.h"
#include "core/grid.h"
#include "core/grid_builder.h"
#include "core/search.h"
#include "core/stats.h"
#include "sim/meeting_scheduler.h"
#include "workload/corpus.h"
#include "workload/key_generator.h"

using namespace pgrid;

int main() {
  const size_t num_peers = 256;
  const uint64_t seed = 1;

  // 1. A community of peers, all initially responsible for the whole key space.
  Grid grid(num_peers);
  Rng rng(seed);

  // 2. Self-organization: peers meet randomly and run the exchange algorithm until
  //    the average path length reaches 99% of maxl.
  ExchangeConfig config;
  config.maxl = 5;        // maximal path length
  config.refmax = 4;      // references kept per level
  config.recmax = 2;      // recursion bound (the paper's sweet spot)
  config.recursion_fanout = 2;
  ExchangeEngine exchange(&grid, config, &rng);
  MeetingScheduler scheduler(num_peers);
  GridBuilder builder(&grid, &exchange, &scheduler, &rng);
  BuildReport report = builder.BuildToFractionOfMaxDepth(0.99, 10'000'000);
  std::printf("built P-Grid: %zu peers, avg depth %.2f, %llu exchanges (%.1f per "
              "peer), %.0f ms\n",
              num_peers, report.avg_path_length,
              static_cast<unsigned long long>(report.exchanges),
              static_cast<double>(report.exchanges) / num_peers,
              report.seconds * 1e3);

  // 3. Publish a corpus: items live at their holders; index entries are installed
  //    at the peers responsible for each key.
  KeyGenerator keygen(KeyGenerator::Mode::kUniform, /*length=*/10);
  std::vector<PeerId> holders;
  std::vector<DataItem> corpus = MakeCorpus(500, num_peers, keygen, &rng, &holders);
  size_t entries = SeedGridPerfectly(&grid, corpus, holders);
  std::printf("published %zu items (%zu index entries across replicas)\n",
              corpus.size(), entries);

  // 4. Search: a query can start at ANY peer and routes in O(log N) messages.
  SearchEngine search(&grid, /*online=*/nullptr, &rng);
  size_t found = 0;
  uint64_t messages = 0;
  for (const DataItem& item : corpus) {
    PeerId start = static_cast<PeerId>(rng.UniformIndex(num_peers));
    QueryResult r = search.Query(start, item.key);
    if (!r.found) continue;
    // The responder's leaf index tells us which peers hold matching items.
    bool matched = false;
    grid.peer(r.responder).index().ForEachOverlapping(
        item.key, [&matched](const IndexEntry&) { matched = true; });
    if (matched) ++found;
    messages += r.messages;
  }
  std::printf("searched %zu items from random entry points: %zu resolved, %.2f "
              "messages per search\n",
              corpus.size(), found,
              static_cast<double>(messages) / static_cast<double>(corpus.size()));

  // 5. Structure statistics.
  std::printf("avg replication factor: %.1f, avg routing refs per peer: %.1f\n",
              GridStats::AverageReplicationFactor(grid),
              GridStats::AverageTotalRefs(grid));
  const check::InvariantReport invariants = check::GridInvariants::Check(grid, config);
  std::printf("structural invariants: %s\n",
              invariants.ok() ? "OK" : invariants.ToString().c_str());
  return invariants.ok() && found == corpus.size() ? 0 : 1;
}
