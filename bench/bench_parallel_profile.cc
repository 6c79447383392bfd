// PP: where does the parallel build spend its time -- and where does t=4 lose?
//
// Builds the same grid (same seed, same batch size, identical digest, which
// the bench checks) at t in {1, 2, 4, 8} with the per-wave profile on, then
// prints the Amdahl accounting per thread count: serial fraction (schedule +
// wave coloring + barrier merge), parallel-region utilization and
// barrier-wait percentiles. Because the wave structure is schedule-determined
// (core/wave_schedule.h), the waves column is identical across rows -- only
// the time columns move, which is exactly what makes any scaling loss
// attributable.
//
// Also runs the read-only parallel query workload at the same thread counts,
// whose report carries per-lane busy time (chunk-granular): the second half
// of the "why is t=4 slower" picture.
//
// Emits BENCH_parallel_profile.json and honors --profile-json=FILE to dump the
// full per-wave BuildProfile of the largest thread count.
//
// Flags: --peers, --maxl, --refmax, --batch, --meetings, --queries, --seed,
//        --threads (comma list, default 1,2,4,8), --json, --profile-json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/build_profile.h"
#include "core/parallel_builder.h"
#include "core/parallel_workload.h"
#include "sim/digest.h"
#include "sim/meeting_scheduler.h"

namespace pgrid {
namespace {

std::vector<size_t> ParseThreads(const std::string& spec) {
  std::vector<size_t> out;
  size_t value = 0;
  bool have = false;
  for (char c : spec) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<size_t>(c - '0');
      have = true;
    } else {
      if (have && value > 0) out.push_back(value);
      value = 0;
      have = false;
    }
  }
  if (have && value > 0) out.push_back(value);
  return out;
}

uint64_t Pct(std::vector<uint64_t> sorted, double pct) {
  if (sorted.empty()) return 0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

void Run(const bench::Args& args) {
  const size_t peers = static_cast<size_t>(args.GetInt("peers", 20000));
  const size_t maxl = static_cast<size_t>(args.GetInt("maxl", 8));
  const size_t refmax = static_cast<size_t>(args.GetInt("refmax", 4));
  const size_t batch = static_cast<size_t>(args.GetInt("batch", 256));
  const uint64_t meetings =
      static_cast<uint64_t>(args.GetInt("meetings", 2'000'000));
  const uint64_t queries = static_cast<uint64_t>(args.GetInt("queries", 20000));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::vector<size_t> thread_counts =
      ParseThreads(args.GetString("threads", "1,2,4,8"));

  bench::Banner("PP: parallel build/query utilization profile",
                "engineering extension (docs/observability.md)",
                "the serial fraction and barrier waits explain any negative "
                "scaling; wave structure is identical across thread counts");

  std::printf("%zu peers, maxl %zu, batch %zu, up to %llu meetings, seed %llu\n\n",
              peers, maxl, batch, static_cast<unsigned long long>(meetings),
              static_cast<unsigned long long>(seed));
  std::printf("%7s %7s %9s %8s %8s %26s %12s\n", "threads", "waves",
              "meet/s", "serial", "util", "barrier wait p50/p95/p99",
              "queries/s");

  bench::JsonReport report("parallel_profile");
  std::string structure;    // wave structure of the first run, for the x-check
  uint64_t first_digest = 0;  // grid digest of the first run, likewise
  std::string last_profile; // full profile JSON of the largest thread count
  for (const size_t threads : thread_counts) {
    bench::GridSetup s;
    s.config.maxl = maxl;
    s.config.refmax = refmax;
    s.config.recmax = 2;
    s.config.recursion_fanout = 2;
    s.grid = std::make_unique<Grid>(peers);
    s.rng = std::make_unique<Rng>(seed);
    ExchangeEngine exchange(s.grid.get(), s.config, s.rng.get());
    MeetingScheduler scheduler(peers);
    ParallelBuildOptions opts;
    opts.threads = threads;
    opts.batch_size = batch;
    opts.profile = true;
    ParallelGridBuilder builder(s.grid.get(), &exchange, &scheduler, s.rng.get(),
                                opts);
    const BuildReport build =
        builder.BuildToFractionOfMaxDepth(0.99, meetings);
    const BuildProfile& profile = *builder.profile();

    // Neither the schedule-determined wave structure nor the built grid may
    // depend on the thread count; a mismatch means determinism is broken, so
    // fail loud.
    const uint64_t digest = sim::GridStateDigest(*s.grid);
    if (structure.empty()) {
      structure = profile.StructureJson();
      first_digest = digest;
    } else if (structure != profile.StructureJson() || digest != first_digest) {
      std::fprintf(stderr, "FATAL: t=%zu built a different %s than t=%zu\n",
                   threads, digest != first_digest ? "grid" : "wave structure",
                   thread_counts.front());
      std::exit(1);
    }

    std::vector<uint64_t> waits = profile.BarrierWaitSamplesNs();
    std::sort(waits.begin(), waits.end());
    const uint64_t p50 = Pct(waits, 50.0);
    const uint64_t p95 = Pct(waits, 95.0);
    const uint64_t p99 = Pct(waits, 99.0);

    ParallelQueryOptions qopts;
    qopts.threads = threads;
    qopts.num_queries = queries;
    qopts.key_length = maxl;
    qopts.seed = seed + 1;
    const ParallelQueryReport query =
        RunParallelQueries(s.grid.get(), nullptr, qopts);

    const double meet_rate =
        build.seconds > 0 ? static_cast<double>(build.meetings) / build.seconds
                          : 0.0;
    char waitbuf[64];
    std::snprintf(waitbuf, sizeof(waitbuf), "%llu/%llu/%llu us",
                  static_cast<unsigned long long>(p50 / 1000),
                  static_cast<unsigned long long>(p95 / 1000),
                  static_cast<unsigned long long>(p99 / 1000));
    std::printf("%7zu %7zu %9.0f %7.1f%% %7.1f%% %26s %12.0f\n", threads,
                profile.waves.size(), meet_rate, 100.0 * profile.SerialFraction(),
                100.0 * profile.Utilization(), waitbuf, query.queries_per_second);

    report.AddRow()
        .Int("threads", threads)
        .Int("peers", peers)
        .Int("batch_size", batch)
        .Int("meetings", build.meetings)
        .Int("waves", profile.waves.size())
        .Num("build_seconds", build.seconds)
        .Num("meetings_per_sec", meet_rate)
        .Num("serial_fraction", profile.SerialFraction())
        .Num("utilization", profile.Utilization())
        .Int("barrier_wait_p50_ns", p50)
        .Int("barrier_wait_p95_ns", p95)
        .Int("barrier_wait_p99_ns", p99)
        .Num("queries_per_sec", query.queries_per_second)
        .Num("query_utilization", query.utilization);

    last_profile = profile.ToJson();
  }
  report.WriteTo(args.GetString("json", "BENCH_parallel_profile.json"));
  bench::MaybeDumpFile(args, "profile-json", "build profile", last_profile);
  std::printf("\n(serial = schedule + wave coloring + barrier merge; "
              "utilization = lane busy time / (threads x parallel wall); "
              "wave structure is byte-identical across the rows above)\n");
}

}  // namespace
}  // namespace pgrid

int main(int argc, char** argv) {
  pgrid::bench::Args args(argc, argv);
  pgrid::Run(args);
  return 0;
}
