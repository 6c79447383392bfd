// File-sharing scenario: the workload that motivates the paper (Sec. 1/4).
//
// A Gnutella-like community shares files. Filenames are hashed to binary keys; each
// peer publishes its own files into the P-Grid. We then compare the cost of finding
// a file via (a) P-Grid routing and (b) Gnutella-style flooding over an unstructured
// overlay -- the paper's central motivation: "search requests are broadcasted over
// the network... extremely costly".
//
// Run: ./filesharing

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/flooding.h"
#include "core/exchange.h"
#include "core/grid.h"
#include "core/grid_builder.h"
#include "core/search.h"
#include "sim/meeting_scheduler.h"

using namespace pgrid;

namespace {

/// Hashes a filename to a binary key of `bits` bits (FNV-1a based). In a real
/// deployment this is the index-term mapping of Sec. 2: any total order works; a
/// hash gives the uniform distribution the paper assumes.
KeyPath FileKey(const std::string& name, size_t bits) {
  uint64_t h = 1469598103934665603ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return KeyPath::FromUint64(h >> (64 - bits), bits);
}

}  // namespace

int main() {
  const size_t num_peers = 1000;
  const size_t files_per_peer = 5;
  const size_t key_bits = 16;
  Rng rng(7);

  // The shared library: every peer contributes a few "MP3s".
  std::vector<std::pair<PeerId, std::string>> library;
  for (PeerId p = 0; p < num_peers; ++p) {
    for (size_t f = 0; f < files_per_peer; ++f) {
      library.emplace_back(p, "track-" + std::to_string(p) + "-" + std::to_string(f) +
                                  ".mp3");
    }
  }
  std::printf("community: %zu peers sharing %zu files\n", num_peers, library.size());

  // --- P-Grid: build the access structure, publish the files. ---
  Grid grid(num_peers);
  ExchangeConfig config;
  config.maxl = 6;
  config.refmax = 5;
  config.recmax = 2;
  config.recursion_fanout = 2;
  ExchangeEngine exchange(&grid, config, &rng);
  MeetingScheduler scheduler(num_peers);
  GridBuilder builder(&grid, &exchange, &scheduler, &rng);
  BuildReport report = builder.BuildToFractionOfMaxDepth(0.99, 10'000'000);
  std::printf("P-Grid built: avg depth %.2f, %.1f exchanges/peer\n",
              report.avg_path_length,
              static_cast<double>(report.exchanges) / num_peers);

  ItemId next_id = 1;
  for (const auto& [holder, name] : library) {
    DataItem item;
    item.id = next_id++;
    item.key = FileKey(name, key_bits);
    item.payload = name;
    item.version = 1;
    grid.peer(holder).store().Upsert(item);
    IndexEntry entry{holder, item.id, item.key, item.version};
    for (PeerState& peer : grid) {
      if (PathsOverlap(peer.path(), entry.key)) peer.index().InsertOrRefresh(entry);
    }
  }

  // --- Gnutella baseline: same files on an unstructured overlay. ---
  FloodingConfig fcfg;
  fcfg.mean_degree = 4;
  fcfg.ttl = 7;  // classic Gnutella TTL
  FloodingNetwork gnutella(num_peers, fcfg, &rng);
  {
    ItemId id = 1;
    for (const auto& [holder, name] : library) {
      DataItem item;
      item.id = id++;
      item.key = FileKey(name, key_bits);
      item.payload = name;
      gnutella.PlaceItem(holder, item);
    }
  }

  // --- Head-to-head: look up 200 random files. ---
  SearchEngine search(&grid, nullptr, &rng);
  size_t pgrid_found = 0, flood_found = 0;
  uint64_t pgrid_msgs = 0, flood_msgs = 0;
  const size_t lookups = 200;
  for (size_t i = 0; i < lookups; ++i) {
    const auto& [holder, name] = library[rng.UniformIndex(library.size())];
    const KeyPath key = FileKey(name, key_bits);
    const PeerId start = static_cast<PeerId>(rng.UniformIndex(num_peers));

    QueryResult q = search.Query(start, key);
    pgrid_msgs += q.messages;
    bool matched = false;
    if (q.found) {
      grid.peer(q.responder).index().ForEachOverlapping(
          key, [&matched](const IndexEntry&) { matched = true; });
    }
    if (matched) ++pgrid_found;

    FloodResult fr = gnutella.Search(start, key, nullptr, &rng);
    flood_msgs += fr.messages;
    if (fr.found) ++flood_found;
  }

  std::printf("\n%-10s | %10s | %14s\n", "system", "hit rate", "msgs per query");
  std::printf("-----------+------------+---------------\n");
  std::printf("%-10s | %9.1f%% | %14.1f\n", "P-Grid",
              100.0 * static_cast<double>(pgrid_found) / lookups,
              static_cast<double>(pgrid_msgs) / lookups);
  std::printf("%-10s | %9.1f%% | %14.1f\n", "Gnutella",
              100.0 * static_cast<double>(flood_found) / lookups,
              static_cast<double>(flood_msgs) / lookups);
  std::printf("\nP-Grid answers with ~log2(N) messages; flooding pays the broadcast "
              "(and still misses files beyond its TTL horizon).\n");
  return pgrid_found == lookups ? 0 : 1;
}
