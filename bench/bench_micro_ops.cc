// Micro-benchmarks (google-benchmark) for the core operations: key algebra,
// exchange execution, query routing, and update propagation on a prebuilt grid.
// These measure implementation throughput, complementing the experiment binaries
// that reproduce the paper's tables.
//
// Besides the google-benchmark section, two manual JSON reports are written:
// BENCH_micro_ops.json (--json=FILE; key algebra + parallel build/query rows)
// and BENCH_obs_overhead.json (--obs-json=FILE; the measured cost of the
// disabled tracing hooks -- see WriteObsOverheadReport and `tools/check.sh
// obs-overhead`).
// --trace-json=FILE additionally dumps the tracing-on pass in chrome://tracing
// format. --obs-peers / --obs-queries scale the overhead section.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/parallel_workload.h"
#include "core/search.h"
#include "core/update.h"
#include "key/key_path.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

// Global allocation counter behind the replaceable operator new. The
// allocation-count section below reads it around tight loops of key-algebra
// operations to prove the inline-word KeyPath representation performs zero
// heap allocations per op (`tools/check.sh memory` gates on the reported rate).
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

/// Allocation-count section: heap allocations per key-algebra operation,
/// measured with the counting operator new above. Paths of <= 64 bits live in
/// the KeyPath's inline word, so the routing hot path (common-prefix, suffix,
/// append, push/pop cycles at protocol depths) must run allocation-free; the
/// 256-bit arm is the contrast case where the heap spill is expected.
/// `tools/check.sh memory` fails if the inline rates regress.
void WriteAllocReport(const bench::Args& args) {
  bench::JsonReport report("alloc_counts");
  Rng rng(33);
  constexpr uint64_t kIters = 200'000;

  const auto measure = [&](const char* op, auto&& body) {
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (uint64_t i = 0; i < kIters; ++i) body();
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - before;
    const double per_op = static_cast<double>(allocs) / kIters;
    std::printf("alloc/op %-28s %8.4f\n", op, per_op);
    report.AddRow().Str("op", op).Int("iters", kIters).Int("allocs", allocs).Num(
        "allocs_per_op", per_op);
  };

  const KeyPath a64 = KeyPath::Random(&rng, 64);
  KeyPath b64 = a64;
  b64.PopBack();
  b64.PushBack(ComplementBit(a64.bit(63)));
  const KeyPath a8 = KeyPath::Random(&rng, 8);
  const KeyPath a256 = KeyPath::Random(&rng, 256);

  measure("inline_common_prefix_64", [&] {
    benchmark::DoNotOptimize(a64.CommonPrefixLength(b64));
  });
  measure("inline_suffix_from_64", [&] {
    benchmark::DoNotOptimize(a64.SuffixFrom(29));
  });
  measure("inline_concat_8_plus_8", [&] {
    benchmark::DoNotOptimize(a8.Concat(a8));
  });
  measure("inline_copy_64", [&] {
    KeyPath copy = a64;
    benchmark::DoNotOptimize(&copy);
  });
  KeyPath walker = KeyPath::Random(&rng, 10);
  measure("inline_push_pop_10", [&] {
    walker.PushBack(1);
    walker.PopBack();
    benchmark::DoNotOptimize(&walker);
  });
  measure("heap_suffix_from_256", [&] {
    benchmark::DoNotOptimize(a256.SuffixFrom(3));
  });

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
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  pgrid::bench::Args args(argc, argv);
  pgrid::WriteJsonReport(args);
  pgrid::WriteAllocReport(args);
  pgrid::WriteObsOverheadReport(args);
  return 0;
}
