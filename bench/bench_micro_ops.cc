// Micro-benchmarks (google-benchmark) for the core operations: key algebra,
// exchange execution, query routing, and update propagation on a prebuilt grid.
// These measure implementation throughput, complementing the experiment binaries
// that reproduce the paper's tables.
//
// Besides the google-benchmark section, two manual JSON reports are written:
// BENCH_micro_ops.json (--json=FILE; key algebra, leaf index, wire codec and
// parallel build/query rows)
// and BENCH_obs_overhead.json (--obs-json=FILE; the measured cost of the
// disabled tracing hooks -- see WriteObsOverheadReport and `tools/check.sh
// obs-overhead`).
// --trace-json=FILE additionally dumps the tracing-on pass in chrome://tracing
// format. --obs-peers / --obs-queries scale the overhead section.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/parallel_workload.h"
#include "core/search.h"
#include "core/update.h"
#include "key/key_path.h"
#include "net/inproc_transport.h"
#include "net/node.h"
#include "net/protocol.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "storage/leaf_index.h"
#include "util/stopwatch.h"

// Global allocation counter behind the replaceable operator new. The
// allocation-count section below reads it around tight loops of key-algebra
// operations to prove the inline-word KeyPath representation performs zero
// heap allocations per op, and around node meetings, searches and publishes
// (`tools/check.sh memory` gates on the reported rates).
// Counting is one relaxed atomic increment per allocation: negligible next to
// malloc itself, and inert for every other section of this binary.
static std::atomic<uint64_t> g_alloc_count{0};

// GCC pairs the inlined replacement delete with the allocation it inlined at
// each call site and flags the malloc/free implementation as mismatched; the
// pairing is exactly the contract of a replaced global operator, so the
// warning is a false positive here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (n + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p, std::align_val_t{1});
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  ::operator delete(p, a);
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  ::operator delete(p, a);
}

#pragma GCC diagnostic pop

namespace pgrid {
namespace {

void BM_KeyPathCommonPrefix(benchmark::State& state) {
  Rng rng(1);
  const size_t len = static_cast<size_t>(state.range(0));
  KeyPath a = KeyPath::Random(&rng, len);
  KeyPath b = a;
  if (len > 0) {
    b.PopBack();
    b.PushBack(ComplementBit(a.bit(len - 1)));  // differ at the last bit
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.CommonPrefixLength(b));
  }
}
BENCHMARK(BM_KeyPathCommonPrefix)->Arg(8)->Arg(64)->Arg(256);

void BM_KeyPathSuffixFrom(benchmark::State& state) {
  Rng rng(8);
  const size_t len = static_cast<size_t>(state.range(0));
  KeyPath a = KeyPath::Random(&rng, len);
  // Unaligned cut in the middle: the word-packed extraction's general case, and
  // what every QueryImpl routing hop executes.
  const size_t pos = len / 2 + 1 < len ? len / 2 + 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.SuffixFrom(pos));
  }
}
BENCHMARK(BM_KeyPathSuffixFrom)->Arg(8)->Arg(64)->Arg(256);

void BM_KeyPathConcat(benchmark::State& state) {
  Rng rng(9);
  const size_t len = static_cast<size_t>(state.range(0));
  KeyPath a = KeyPath::Random(&rng, len / 2 + 3);  // unaligned join point
  KeyPath b = KeyPath::Random(&rng, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Concat(b));
  }
}
BENCHMARK(BM_KeyPathConcat)->Arg(8)->Arg(64)->Arg(256);

void BM_KeyPathRandom(benchmark::State& state) {
  Rng rng(2);
  const size_t len = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyPath::Random(&rng, len));
  }
}
BENCHMARK(BM_KeyPathRandom)->Arg(10)->Arg(64);

void BM_ExchangeMeeting(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Grid grid(n);
  Rng rng(3);
  ExchangeConfig cfg;
  cfg.maxl = 10;
  cfg.refmax = 4;
  cfg.recmax = 2;
  cfg.recursion_fanout = 2;
  ExchangeEngine exchange(&grid, cfg, &rng);
  MeetingScheduler scheduler(n);
  for (auto _ : state) {
    Meeting m = scheduler.Next(&rng);
    exchange.Exchange(m.a, m.b);
  }
  state.counters["exchanges"] = static_cast<double>(exchange.num_exchanges());
}
BENCHMARK(BM_ExchangeMeeting)->Arg(1000)->Arg(10000);

void BM_Query(benchmark::State& state) {
  static bench::GridSetup setup =
      bench::BuildGrid(static_cast<size_t>(state.range(0)), 8, 4, 2, 2, /*seed=*/4);
  Rng rng(5);
  SearchEngine search(setup.grid.get(), nullptr, &rng);
  uint64_t found = 0;
  for (auto _ : state) {
    KeyPath q = KeyPath::Random(&rng, 8);
    PeerId start = static_cast<PeerId>(rng.UniformIndex(setup.grid->size()));
    found += search.Query(start, q).found ? 1 : 0;
  }
  benchmark::DoNotOptimize(found);
}
BENCHMARK(BM_Query)->Arg(4096);

void BM_BfsUpdate(benchmark::State& state) {
  static bench::GridSetup setup = bench::BuildGrid(4096, 8, 4, 2, 2, /*seed=*/6);
  Rng rng(7);
  UpdateEngine update(setup.grid.get(), nullptr, &rng);
  UpdateConfig cfg;
  cfg.recbreadth = 2;
  cfg.repetition = 1;
  for (auto _ : state) {
    KeyPath q = KeyPath::Random(&rng, 8);
    benchmark::DoNotOptimize(
        update.Probe(q, UpdateStrategy::kBreadthFirst, cfg).reached.size());
  }
}
BENCHMARK(BM_BfsUpdate);

/// With fewer than 4 peers per leaf at maxl 8 a parallel_build_query grid may
/// not reach 0.99 * maxl, and its build then runs on to the 200M-meeting cap
/// (256 peers: over ten minutes).
constexpr int64_t kMinParPeers = 1024;

/// Batches timed per row by FastestBatchSeconds. A row reports its fastest
/// batch: on a shared host a single timed pass reads whatever the neighbours
/// were doing while it ran.
constexpr uint64_t kTimedBatches = 21;

/// Runs `batch()` kTimedBatches times; returns the seconds of the fastest run.
template <typename Fn>
double FastestBatchSeconds(Fn&& batch) {
  double fastest = std::numeric_limits<double>::infinity();
  for (uint64_t b = 0; b < kTimedBatches; ++b) {
    Stopwatch watch;
    batch();
    fastest = std::min(fastest, watch.ElapsedSeconds());
  }
  return fastest;
}

/// One wire-codec row: ns per encode and per decode of `m`, each the fastest
/// of kTimedBatches batches of `iters`.
template <typename M>
void AddCodecRow(bench::JsonReport* report, const char* op, const M& m,
                 std::string (*encode)(const M&),
                 Result<M> (*decode)(const std::string&)) {
  constexpr uint64_t kIters = 10'000;
  const std::string bytes = encode(m);
  const double encode_secs = FastestBatchSeconds([&] {
    for (uint64_t i = 0; i < kIters; ++i) {
      std::string out = encode(m);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
  });
  const double decode_secs = FastestBatchSeconds([&] {
    for (uint64_t i = 0; i < kIters; ++i) {
      Result<M> back = decode(bytes);
      benchmark::DoNotOptimize(back);
    }
  });
  report->AddRow()
      .Str("op", op)
      .Int("bytes", bytes.size())
      .Int("iters", kIters)
      .Int("batches", kTimedBatches)
      .Num("encode_ns", encode_secs * 1e9 / kIters)
      .Num("decode_ns", decode_secs * 1e9 / kIters);
}

/// Manual-timing section: measures the operations whose scaling the JSON report
/// tracks across commits -- key algebra ns/op, sequential exchange throughput, and
/// parallel build/query throughput per thread count -- without google-benchmark's
/// per-run variance in the output format.
void WriteJsonReport(const bench::Args& args) {
  bench::JsonReport report("micro_ops");
  Rng rng(10);

  // Key algebra: ops/sec over a fixed iteration budget.
  {
    const size_t len = 256;
    const KeyPath a = KeyPath::Random(&rng, len);
    KeyPath b = a;
    b.PopBack();
    b.PushBack(ComplementBit(a.bit(len - 1)));
    constexpr uint64_t kIters = 2'000'000;
    Stopwatch watch;
    size_t sink = 0;
    for (uint64_t i = 0; i < kIters; ++i) sink += a.CommonPrefixLength(b);
    double secs = watch.ElapsedSeconds();
    benchmark::DoNotOptimize(sink);
    report.AddRow()
        .Str("op", "key_common_prefix_256")
        .Int("iters", kIters)
        .Num("seconds", secs)
        .Num("ops_per_sec", secs > 0 ? kIters / secs : 0);

    Stopwatch watch2;
    for (uint64_t i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(a.SuffixFrom(129));
    }
    secs = watch2.ElapsedSeconds();
    report.AddRow()
        .Str("op", "key_suffix_from_256")
        .Int("iters", kIters)
        .Num("seconds", secs)
        .Num("ops_per_sec", secs > 0 ? kIters / secs : 0);
  }

  // Leaf index at 1k, 4k and 16k entries: a one-hit match, a version update
  // and a version read of one item, a drain that finds nothing to move, and
  // an insert of a new key. Every key extends the leaf path "0110" and the 28
  // bits after it are distinct, as in a peer's index.
  for (size_t n : {size_t{1} << 10, size_t{1} << 12, size_t{1} << 14}) {
    const KeyPath leaf = KeyPath::FromString("0110").value();
    // n entries for the index and n more to insert, made before any timing.
    std::vector<IndexEntry> entries;
    for (uint64_t i = 0; i < 2 * n; ++i) {
      const uint64_t suffix = (i * 0x9e3779b1ull) & ((uint64_t{1} << 28) - 1);
      entries.push_back({static_cast<PeerId>(i % 97), i,
                         leaf.Concat(KeyPath::FromUint64(suffix, 28)), 1});
    }
    LeafIndex index;
    for (uint64_t i = 0; i < n; ++i) index.InsertOrRefresh(entries[i]);
    // `iters` and `hits` per timed pass and `secs` of the fastest, where a
    // row times `batches` passes.
    const auto add_row = [&](const char* op, uint64_t iters, double secs, uint64_t hits,
                             uint64_t batches = 1) {
      report.AddRow()
          .Str("op", op)
          .Int("entries", n)
          .Int("iters", iters)
          .Int("batches", batches)
          .Num("ns_per_op", secs * 1e9 / static_cast<double>(iters))
          .Num("hits_per_op", static_cast<double>(hits) / static_cast<double>(iters));
    };

    constexpr uint64_t kQueries = 200'000;
    uint64_t hits = 0;
    Stopwatch match_watch;
    for (uint64_t q = 0; q < kQueries; ++q) {
      index.ForEachOverlapping(entries[q * 7919 % n].key, [&hits](const IndexEntry&) { ++hits; });
    }
    add_row("index_match_one_hit", kQueries, match_watch.ElapsedSeconds(), hits);

    // Version updates and reads of one item, each the fastest of
    // kTimedBatches batches. Every item has one holder here, and every
    // update is newer than the last, so each one bumps its entry.
    constexpr uint64_t kVersionOps = 10'000;
    uint64_t version = 1;
    uint64_t bumped = 0;
    const double apply_secs = FastestBatchSeconds([&] {
      for (uint64_t q = 0; q < kVersionOps; ++q) {
        bumped += index.ApplyVersion(entries[q * 7919 % n].item_id, ++version);
      }
    });
    add_row("index_apply_version", kVersionOps, apply_secs, bumped / kTimedBatches,
            kTimedBatches);
    uint64_t found = 0;
    const double latest_secs = FastestBatchSeconds([&] {
      for (uint64_t q = 0; q < kVersionOps; ++q) {
        found += index.LatestVersionOf(entries[q * 7919 % n].item_id) > 0;
      }
    });
    add_row("index_latest_version", kVersionOps, latest_secs, found / kTimedBatches,
            kTimedBatches);

    constexpr uint64_t kDrains = 1'000'000;
    uint64_t moved = 0;
    Stopwatch drain_watch;
    for (uint64_t d = 0; d < kDrains; ++d) moved += index.ExtractNotMatching(leaf).size();
    add_row("index_drain_nothing", kDrains, drain_watch.ElapsedSeconds(), moved);

    // Each of 8 fresh copies takes its own n/8 of the new entries; the table
    // does not rehash on the way.
    const uint64_t batch = n / 8;
    double insert_secs = 0;
    for (uint64_t copy = 0; copy < 8; ++copy) {
      LeafIndex grown = index;
      Stopwatch insert_watch;
      for (uint64_t i = 0; i < batch; ++i) grown.InsertOrRefresh(entries[n + copy * batch + i]);
      insert_secs += insert_watch.ElapsedSeconds();
      benchmark::DoNotOptimize(grown.size());
    }
    add_row("index_insert_new_key", 8 * batch, insert_secs, 0);
  }

  // Wire codec: the messages node_read sends most, shaped like its traffic
  // (16-bit keys, "node:<i>" addresses, maxl 5), then bare key paths.
  {
    const auto key = [&rng](size_t bits) { return KeyPath::Random(&rng, bits); };
    const auto address = [&rng] { return "node:" + std::to_string(rng.UniformIndex(32)); };
    net::QueryRequest query{key(16), 2};
    AddCodecRow(&report, "codec_query_req", query, &net::EncodeQueryRequest,
                &net::DecodeQueryRequest);
    net::QueryResponseForward forward{2, key(14), {address(), address(), address()}};
    AddCodecRow(&report, "codec_query_resp_forward_3", forward,
                &net::EncodeQueryResponseForward, &net::DecodeQueryResponseForward);
    net::QueryResponseFound found{address(), {net::WireEntry{address(), 4711, key(16), 1}}};
    AddCodecRow(&report, "codec_query_resp_found_1", found, &net::EncodeQueryResponseFound,
                &net::DecodeQueryResponseFound);
    // The exchange messages' reference tables view these names, which are
    // all drawn before the first view is taken.
    net::ExchangeRequest exchange{address(), 3, key(5), {}, 0, rng.UniformInt(0, ~uint64_t{0})};
    std::vector<std::string> refs;
    for (int i = 0; i < 15; ++i) refs.push_back(address());
    for (uint32_t level = 1; level <= 5; ++level) {
      for (uint32_t i = 0; i < 3; ++i) exchange.refs.Append(refs[3 * (level - 1) + i]);
      exchange.refs.CloseLevel(level);
    }
    AddCodecRow(&report, "codec_exchange_req_5x3", exchange, &net::EncodeExchangeRequest,
                &net::DecodeExchangeRequest);
    // A response with two reference levels and two referrals and no entries:
    // every address list a response carries, filled.
    std::vector<std::string> updates;
    for (int i = 0; i < 5; ++i) updates.push_back(address());
    net::ExchangeResponse exchanged;
    exchanged.epoch = 3;
    exchanged.append_bits = key(1);
    exchanged.ref_updates.AddLevel(
        3, std::vector<std::string_view>{updates[0], updates[1]});
    exchanged.ref_updates.AddLevel(4, std::vector<std::string_view>{updates[2]});
    exchanged.referrals = {updates[3], updates[4]};
    AddCodecRow(&report, "codec_exchange_resp", exchanged, &net::EncodeExchangeResponse,
                &net::DecodeExchangeResponse);

    // Key paths go 1,024 to a buffer, as a message carries them: each write
    // appends to a writer, each read takes the next path from a reader.
    constexpr uint64_t kBatch = 1024;
    constexpr uint64_t kBatches = 200;
    for (size_t bits : {size_t{16}, size_t{64}, size_t{130}}) {
      const KeyPath k = key(bits);
      Stopwatch write_watch;
      std::string batch;
      for (uint64_t b = 0; b < kBatches; ++b) {
        net::ByteWriter w;
        for (uint64_t i = 0; i < kBatch; ++i) w.WriteKeyPath(k);
        benchmark::DoNotOptimize(w.data().data());
        benchmark::ClobberMemory();
        batch = w.Take();
      }
      const double write_secs = write_watch.ElapsedSeconds();
      Stopwatch read_watch;
      for (uint64_t b = 0; b < kBatches; ++b) {
        net::ByteReader r(batch);
        for (uint64_t i = 0; i < kBatch; ++i) {
          Result<KeyPath> back = r.ReadKeyPath();
          benchmark::DoNotOptimize(back);
        }
      }
      const double read_secs = read_watch.ElapsedSeconds();
      report.AddRow()
          .Str("op", "codec_key_path")
          .Int("bits", bits)
          .Int("iters", kBatch * kBatches)
          .Num("write_ns", write_secs * 1e9 / static_cast<double>(kBatch * kBatches))
          .Num("read_ns", read_secs * 1e9 / static_cast<double>(kBatch * kBatches));
    }
  }

  // Parallel build + query throughput per thread count (deterministic: every
  // thread count produces the identical grid; see core/parallel_builder.h).
  // The parallel builder runs even at threads=1 -- bench::BuildGrid would fall
  // back to the sequential legacy builder there, which converges on a different
  // (equally valid) grid and would break the rows' like-for-like comparison.
  const size_t peers = static_cast<size_t>(args.GetInt("par-peers", 4096));
  const uint64_t queries = static_cast<uint64_t>(args.GetInt("par-queries", 8192));
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    bench::GridSetup s;
    s.config.maxl = 8;
    s.config.refmax = 4;
    s.config.recmax = 2;
    s.config.recursion_fanout = 2;
    s.grid = std::make_unique<Grid>(peers);
    s.rng = std::make_unique<Rng>(11);
    ExchangeEngine exchange(s.grid.get(), s.config, s.rng.get());
    MeetingScheduler scheduler(peers);
    ParallelBuildOptions opts;
    opts.threads = threads;
    ParallelGridBuilder builder(s.grid.get(), &exchange, &scheduler, s.rng.get(),
                                opts);
    s.report = builder.BuildToFractionOfMaxDepth(0.99, 200'000'000);
    ParallelQueryOptions q;
    q.threads = threads;
    q.num_queries = queries;
    q.key_length = 8;
    q.seed = 12;
    ParallelQueryReport qr = RunParallelQueries(s.grid.get(), nullptr, q);
    report.AddRow()
        .Str("op", "parallel_build_query")
        .Int("peers", peers)
        .Int("threads", threads)
        .Int("meetings", s.report.meetings)
        .Num("meetings_per_sec",
             s.report.seconds > 0
                 ? static_cast<double>(s.report.meetings) / s.report.seconds
                 : 0)
        .Num("build_seconds", s.report.seconds)
        .Num("queries_per_sec", qr.queries_per_second)
        .Num("query_seconds", qr.seconds);
  }

  report.WriteTo(args.GetString("json", "BENCH_micro_ops.json"));
}

/// Heap allocations per node meeting, search and publish in a 32-node InProc
/// community shaped like perfbench's node_read (maxl 5, refmax 3, recmax 2,
/// fan-out 2, 16-bit keys): 60 bootstrap meetings per node and 32,000
/// preloaded items, then a fixed-seed stream of each op. InProc calls run on
/// this thread, so the counts are exact and the same on every run.
/// `measure(op, iters, body)` counts the allocations of `iters` calls of body.
template <typename Measure>
void MeasureNodeOps(const Measure& measure) {
  constexpr size_t kNodes = 32;
  constexpr size_t kKeyBits = 16;
  const auto address = [](size_t i) { return "node:" + std::to_string(i); };
  net::NodeConfig config;
  config.maxl = 5;
  config.refmax = 3;
  config.recmax = 2;
  config.recursion_fanout = 2;
  net::InProcTransport bus;
  obs::MetricsRegistry registry;
  std::vector<std::unique_ptr<net::PGridNode>> nodes;
  for (size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(
        std::make_unique<net::PGridNode>(address(i), &bus, config, 100 + i, &registry));
    PGRID_CHECK(nodes.back()->Start().ok());
  }
  Rng rng(41);
  const auto other_than = [&](size_t a) {
    return (a + 1 + rng.UniformIndex(kNodes - 1)) % kNodes;
  };
  for (size_t m = 0; m < 60 * kNodes; ++m) {
    const size_t a = rng.UniformIndex(kNodes);
    PGRID_CHECK(nodes[a]->MeetWith(address(other_than(a))).ok());
  }
  struct Item {
    DataItem data;
    size_t origin;
  };
  std::vector<Item> items;
  for (uint64_t id = 1; id <= 32'000; ++id) {
    const KeyPath key = KeyPath::Random(&rng, kKeyBits);
    Item item{DataItem{id, key, "item-" + std::to_string(id), 1}, rng.UniformIndex(kNodes)};
    PGRID_CHECK(nodes[item.origin]->Publish(item.data).ok());
    items.push_back(std::move(item));
  }

  measure("node_meet", 2'000, [&] {
    const size_t a = rng.UniformIndex(kNodes);
    PGRID_CHECK(nodes[a]->MeetWith(address(other_than(a))).ok());
  });
  measure("node_search", 20'000, [&] {
    const Item& item = items[rng.UniformIndex(items.size())];
    PGRID_CHECK(nodes[rng.UniformIndex(kNodes)]->Search(item.data.key).ok());
  });
  measure("node_publish", 5'000, [&] {
    Item& item = items[rng.UniformIndex(items.size())];
    ++item.data.version;
    PGRID_CHECK(nodes[item.origin]->Publish(item.data).ok());
  });
}

/// Allocation-count section: heap allocations per key-algebra operation,
/// measured with the counting operator new above. Paths of <= 64 bits live in
/// the KeyPath's inline word, so the routing hot path (common-prefix, suffix,
/// append, push/pop cycles at protocol depths) must run allocation-free; the
/// 256-bit arm is the contrast case where the heap spill is expected. The
/// node rows (MeasureNodeOps) count a whole operation's allocations.
/// `tools/check.sh memory` fails if the inline rates or node_meet regress.
void WriteAllocReport(const bench::Args& args) {
  bench::JsonReport report("alloc_counts");
  Rng rng(33);
  constexpr uint64_t kIters = 200'000;

  const auto measure = [&](const char* op, uint64_t iters, auto&& body) {
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (uint64_t i = 0; i < iters; ++i) body();
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - before;
    const double per_op = static_cast<double>(allocs) / static_cast<double>(iters);
    std::printf("alloc/op %-28s %8.4f\n", op, per_op);
    report.AddRow().Str("op", op).Int("iters", iters).Int("allocs", allocs).Num(
        "allocs_per_op", per_op);
  };

  const KeyPath a64 = KeyPath::Random(&rng, 64);
  KeyPath b64 = a64;
  b64.PopBack();
  b64.PushBack(ComplementBit(a64.bit(63)));
  const KeyPath a8 = KeyPath::Random(&rng, 8);
  const KeyPath a256 = KeyPath::Random(&rng, 256);

  measure("inline_common_prefix_64", kIters, [&] {
    benchmark::DoNotOptimize(a64.CommonPrefixLength(b64));
  });
  measure("inline_suffix_from_64", kIters, [&] {
    benchmark::DoNotOptimize(a64.SuffixFrom(29));
  });
  measure("inline_concat_8_plus_8", kIters, [&] {
    benchmark::DoNotOptimize(a8.Concat(a8));
  });
  measure("inline_copy_64", kIters, [&] {
    KeyPath copy = a64;
    benchmark::DoNotOptimize(&copy);
  });
  KeyPath walker = KeyPath::Random(&rng, 10);
  measure("inline_push_pop_10", kIters, [&] {
    walker.PushBack(1);
    walker.PopBack();
    benchmark::DoNotOptimize(&walker);
  });
  measure("heap_suffix_from_256", kIters, [&] {
    benchmark::DoNotOptimize(a256.SuffixFrom(3));
  });
  MeasureNodeOps(measure);

  report.WriteTo(args.GetString("alloc-json", "BENCH_alloc_counts.json"));
}

/// Observability-overhead section: what do the disabled trace hooks cost on the
/// query hot path? Every instrumented site is one null-check branch when no
/// recorder is attached (obs/trace.h), so the estimate is
///
///   est_off_overhead_pct = null_site_ns * sites_per_query / query_ns_off
///
/// with every factor measured here: null_site_ns from a tight loop over a
/// volatile-null TraceSpan, sites_per_query from the recorded event count of a
/// tracing-on pass, query_ns_off from the faster of two tracing-off passes
/// (two passes so the run-to-run noise floor is visible next to the estimate).
/// `tools/check.sh obs-overhead` asserts est_off_overhead_pct < 2 on this
/// file's output.
void WriteObsOverheadReport(const bench::Args& args) {
  const size_t peers = static_cast<size_t>(args.GetInt("obs-peers", 4096));
  const uint64_t queries =
      static_cast<uint64_t>(args.GetInt("obs-queries", 30'000));
  bench::GridSetup setup = bench::BuildGrid(peers, 8, 4, 2, 2, /*seed=*/21);
  Rng rng(22);
  SearchEngine search(setup.grid.get(), nullptr, &rng);

  // One pass of the identical seeded query stream; returns wall seconds.
  const auto run_pass = [&](uint64_t pass_seed) {
    Rng qrng(pass_seed);
    uint64_t found = 0;
    Stopwatch watch;
    for (uint64_t q = 0; q < queries; ++q) {
      KeyPath key = KeyPath::Random(&qrng, 8);
      PeerId start = static_cast<PeerId>(qrng.UniformIndex(setup.grid->size()));
      found += search.Query(start, key).found ? 1 : 0;
    }
    const double secs = watch.ElapsedSeconds();
    benchmark::DoNotOptimize(found);
    return secs;
  };

  const double off_a = run_pass(23);
  const double off_b = run_pass(23);
  obs::TraceRecorder recorder(1 << 20);
  setup.grid->SetTraceRecorder(&recorder);
  const double on = run_pass(23);
  setup.grid->SetTraceRecorder(nullptr);
  const double sites_per_query =
      static_cast<double>(recorder.size() + recorder.dropped()) /
      static_cast<double>(queries);

  // The disabled-site cost itself: a TraceSpan against a null recorder. The
  // volatile load stops the compiler from hoisting the null check out of the
  // loop, which is exactly the per-site work a real call site performs.
  obs::TraceRecorder* volatile null_recorder = nullptr;
  constexpr uint64_t kSpanIters = 20'000'000;
  Stopwatch span_watch;
  for (uint64_t i = 0; i < kSpanIters; ++i) {
    obs::TraceSpan span(null_recorder, "off");
    benchmark::DoNotOptimize(&span);
  }
  const double null_site_ns =
      span_watch.ElapsedSeconds() * 1e9 / static_cast<double>(kSpanIters);

  const double off_secs = off_a < off_b ? off_a : off_b;
  const double query_ns_off = off_secs * 1e9 / static_cast<double>(queries);
  const double est_off_overhead_pct =
      query_ns_off > 0 ? 100.0 * null_site_ns * sites_per_query / query_ns_off
                       : 0.0;
  const double noise_pct =
      off_secs > 0 ? 100.0 * (off_a > off_b ? off_a - off_b : off_b - off_a) /
                         off_secs
                   : 0.0;

  std::printf("\nobs overhead: %.3f ns/site (null recorder), %.1f sites/query, "
              "%.0f ns/query off => est %.4f%% (noise floor %.2f%%, tracing-on "
              "pass %+.1f%%)\n",
              null_site_ns, sites_per_query, query_ns_off, est_off_overhead_pct,
              noise_pct, off_secs > 0 ? 100.0 * (on - off_secs) / off_secs : 0.0);

  bench::JsonReport report("obs_overhead");
  const auto add_pass = [&](const char* op, double secs) {
    report.AddRow()
        .Str("op", op)
        .Int("peers", peers)
        .Int("queries", queries)
        .Num("seconds", secs)
        .Num("queries_per_sec", secs > 0 ? queries / secs : 0)
        .Num("ns_per_query", queries > 0 ? secs * 1e9 / queries : 0);
  };
  add_pass("query_trace_off_a", off_a);
  add_pass("query_trace_off_b", off_b);
  add_pass("query_trace_on", on);
  report.AddRow()
      .Str("op", "null_span")
      .Int("iters", kSpanIters)
      .Num("ns_per_op", null_site_ns);
  report.AddRow()
      .Str("op", "estimate")
      .Num("null_site_ns", null_site_ns)
      .Num("sites_per_query", sites_per_query)
      .Num("query_ns_off", query_ns_off)
      .Num("est_off_overhead_pct", est_off_overhead_pct)
      .Num("noise_floor_pct", noise_pct)
      .Int("trace_events", recorder.size())
      .Int("trace_dropped", recorder.dropped());
  report.WriteTo(args.GetString("obs-json", "BENCH_obs_overhead.json"));
  bench::MaybeDumpFile(args, "trace-json", "trace",
                       obs::TraceToChromeJson(recorder.events()));
}

}  // namespace
}  // namespace pgrid

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags only
  pgrid::bench::Args args(argc, argv);
  const int64_t par_peers = args.GetInt("par-peers", pgrid::kMinParPeers);
  if (par_peers < pgrid::kMinParPeers) {
    std::fprintf(stderr,
                 "bench_micro_ops: --par-peers=%lld is below %lld (4 peers per leaf at "
                 "maxl 8); a smaller grid may build for up to 200M meetings\n",
                 static_cast<long long>(par_peers), static_cast<long long>(pgrid::kMinParPeers));
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  pgrid::WriteJsonReport(args);
  pgrid::WriteAllocReport(args);
  pgrid::WriteObsOverheadReport(args);
  return 0;
}
