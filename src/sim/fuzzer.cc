#include "sim/fuzzer.h"

#include <span>
#include <utility>

#include "util/rng.h"

namespace pgrid {
namespace sim {
namespace {

/// Stream index separating the generator's draws from the runner's per-step
/// streams (which use indices 1 .. steps+1 of the scenario seed).
constexpr uint64_t kGeneratorStream = 0xF0220000ull;

/// One step kind's share of a corpus's step mix.
struct KindWeight {
  StepKind kind;
  uint64_t percent;
};

// One step mix per corpus. Each generated step rolls UniformInt(0, 99) once and
// takes the first kind whose running share exceeds the roll, so a table's order
// is part of its corpus: reordering or reweighting a table changes the scenarios
// its seeds stand for.

/// Exchanges dominate (they are the protocol's engine), data and fault steps
/// stress the invariants, barriers pin failures to a step.
constexpr KindWeight kPlainMix[] = {
    {StepKind::kExchange, 35}, {StepKind::kInsert, 20}, {StepKind::kUpdate, 10},
    {StepKind::kChurn, 10},    {StepKind::kFault, 12},  {StepKind::kRepair, 6},
    {StepKind::kBarrier, 7},
};
/// The plain kinds, with 12% moved to kKill / kRestart so most seeds crash and
/// recover several peers.
constexpr KindWeight kCrashMix[] = {
    {StepKind::kExchange, 30}, {StepKind::kInsert, 20}, {StepKind::kUpdate, 8},
    {StepKind::kChurn, 8},     {StepKind::kFault, 10},  {StepKind::kRepair, 6},
    {StepKind::kKill, 6},      {StepKind::kRestart, 6}, {StepKind::kBarrier, 6},
};
/// The plain kinds keep a slim majority; the rest goes to the grid-scale events
/// of docs/robustness.md (partitions, crash waves, flash crowds, gray failures,
/// mass joins).
constexpr KindWeight kMacroMix[] = {
    {StepKind::kExchange, 22},  {StepKind::kInsert, 16},    {StepKind::kUpdate, 8},
    {StepKind::kChurn, 6},      {StepKind::kFault, 6},      {StepKind::kRepair, 6},
    {StepKind::kPartition, 8},  {StepKind::kCrashWave, 6},  {StepKind::kFlashCrowd, 6},
    {StepKind::kSlowNode, 5},   {StepKind::kMassJoin, 5},   {StepKind::kBarrier, 6},
};

constexpr uint64_t TotalPercent(std::span<const KindWeight> mix) {
  uint64_t total = 0;
  for (const KindWeight& w : mix) total += w.percent;
  return total;
}
static_assert(TotalPercent(kPlainMix) == 100);
static_assert(TotalPercent(kCrashMix) == 100);
static_assert(TotalPercent(kMacroMix) == 100);

std::span<const KindWeight> StepMix(FuzzCorpus corpus) {
  if (corpus == FuzzCorpus::kCrash) return kCrashMix;
  if (corpus == FuzzCorpus::kMacro) return kMacroMix;
  return kPlainMix;  // kPlain and kHealTail share their random steps
}

/// Draws one step of `kind`: its parameters, in the same order in every corpus.
ScenarioStep DrawStep(StepKind kind, Rng* rng, const ScenarioConfig& config) {
  ScenarioStep step;
  step.kind = kind;
  switch (kind) {
    case StepKind::kExchange:
      step.a = rng->UniformInt(1, 4 * config.num_peers);  // meetings
      break;
    case StepKind::kInsert:
      step.a = rng->UniformInt(0, config.num_peers - 1);       // holder
      step.b = rng->UniformInt(0, (1ull << config.maxl) - 1);  // key bits
      step.c = rng->UniformInt(0, config.maxl - 1);            // key length
      step.d = rng->UniformInt(0, 15);                         // payload size
      break;
    case StepKind::kUpdate:
      step.a = rng->UniformInt(0, 1ull << 32);  // item selector
      step.b = rng->UniformInt(0, 2);           // strategy
      break;
    case StepKind::kChurn:
      step.a = rng->UniformInt(0, 2);                     // crashes
      step.b = rng->UniformInt(0, 1);                     // graceful leaves
      step.c = rng->UniformInt(0, 2);                     // joins
      step.d = rng->UniformInt(0, 2 * config.num_peers);  // repair meetings
      break;
    case StepKind::kFault:
      step.a = rng->UniformInt(0, 6);
      step.b = rng->UniformInt(0, 1ull << 32);
      step.c = rng->UniformInt(0, 4095);
      break;
    case StepKind::kRepair:
      step.a = rng->UniformInt(1, 3);  // maintenance rounds
      step.b = rng->UniformInt(0, 2);  // majority-read repairs
      break;
    case StepKind::kBarrier:
      step.a = rng->UniformInt(0, 8);  // probe queries
      break;
    case StepKind::kKill:
      step.a = rng->UniformInt(0, 1ull << 32);  // victim selector
      step.c = rng->UniformInt(0, 1);           // snapshot vs WAL-delta flavor
      break;
    case StepKind::kRestart:
      step.a = rng->UniformInt(0, 1ull << 32);  // killed-list selector
      step.b = rng->Bernoulli(0.25) ? 1 : 0;    // occasionally restart all
      step.d = rng->UniformInt(0, 63);          // virtual-clock advance
      break;
    case StepKind::kPartition:
      step.a = rng->Bernoulli(0.35) ? 0 : rng->UniformInt(1, 6);  // heal vs split
      step.b = rng->UniformInt(0, 4);                             // avail ticks
      step.c = rng->UniformInt(0, 7);                             // group rotation
      break;
    case StepKind::kCrashWave:
      step.a = rng->UniformInt(32, 128);         // wave fraction (of 256)
      step.b = rng->UniformInt(0, 1ull << 32);   // prefix bits
      step.c = rng->UniformInt(0, config.maxl);  // prefix length
      break;
    case StepKind::kFlashCrowd:
      step.a = rng->UniformInt(0, 1ull << 32);       // hot-prefix bits
      step.b = rng->UniformInt(0, config.maxl - 1);  // prefix length selector
      step.c = rng->UniformInt(0, 6);                // load multiplier selector
      step.d = rng->UniformInt(0, 3);                // crowd duration selector
      break;
    case StepKind::kSlowNode:
      step.a = rng->Bernoulli(0.25) ? 0 : rng->UniformInt(24, 96);  // clear vs mark
      step.b = rng->UniformInt(0, 59);                              // extra latency
      break;
    case StepKind::kMassJoin:
      step.a = rng->UniformInt(0, 15);   // joiner count selector
      step.b = rng->UniformInt(0, 128);  // integration meetings
      break;
    case StepKind::kCorrupt:  // test-only: no mix holds it
      break;
  }
  return step;
}

/// Rolls one kind from `mix`: the first whose running share exceeds the roll.
StepKind RollKind(std::span<const KindWeight> mix, Rng* rng) {
  uint64_t roll = rng->UniformInt(0, 99);
  size_t i = 0;
  while (roll >= mix[i].percent) roll -= mix[i++].percent;
  return mix[i].kind;
}

}  // namespace

Scenario ScenarioFuzzer::Generate(uint64_t seed, const FuzzOptions& options) {
  Rng rng(DeriveStreamSeed(seed, kGeneratorStream));
  Scenario scenario;
  ScenarioConfig& c = scenario.config;
  c.seed = seed;
  c.fault_seed = DeriveStreamSeed(seed, kGeneratorStream + 1);
  c.num_peers = options.min_peers +
                rng.UniformIndex(options.max_peers - options.min_peers + 1);
  c.maxl = rng.UniformInt(2, 5);
  c.refmax = rng.UniformInt(1, 3);
  c.recmax = rng.UniformInt(0, 2);
  c.recursion_fanout = rng.Bernoulli(0.7) ? 2 : 0;
  c.manage_data = true;  // data invariants need managed leaf indexes
  c.prune_unreachable_refs = rng.Bernoulli(0.5);
  c.recbreadth = rng.UniformInt(1, 3);
  c.repetition = rng.UniformInt(1, 3);
  c.online_prob = rng.Bernoulli(0.5) ? 1.0 : 0.6 + 0.4 * rng.UniformDouble();

  // Warm-up: enough meetings that most scenarios exercise a partly built grid
  // rather than a flat one.
  scenario.steps.push_back(
      ScenarioStep{StepKind::kExchange,
                   rng.UniformInt(2 * c.num_peers, 8 * c.num_peers), 0, 0, 0});
  const size_t steps =
      options.min_steps + rng.UniformIndex(options.max_steps - options.min_steps + 1);
  const std::span<const KindWeight> mix = StepMix(options.corpus);
  for (size_t i = 0; i < steps; ++i) {
    scenario.steps.push_back(DrawStep(RollKind(mix, &rng), &rng, c));
  }
  if (options.vary_builder_threads) {
    // Drawn last so turning the sweep on perturbs no earlier draw: the same
    // seed yields the same community and step list with the sweep on or off,
    // only the execution engine differs.
    c.builder_threads = 1ull << rng.UniformInt(0, 3);  // 1, 2, 4, or 8
  }
  if (options.corpus != FuzzCorpus::kPlain) {
    // The heal-and-converge tail of fuzzer.h: whatever the random steps did,
    // heal partitions and gray failures (macro), lift every transport fault,
    // restart every killed peer (crash, macro), re-mix the survivors, run
    // repair rounds, then demand convergence at a strict barrier (b != 0).
    c.online_prob = 1.0;
    if (options.corpus == FuzzCorpus::kMacro) {
      scenario.steps.push_back(ScenarioStep{StepKind::kPartition, 0, 0, 0, 0});
      scenario.steps.push_back(ScenarioStep{StepKind::kSlowNode, 0, 0, 0, 0});
    }
    scenario.steps.push_back(ScenarioStep{StepKind::kFault, 6, 0, 0, 0});
    if (options.corpus != FuzzCorpus::kHealTail) {
      scenario.steps.push_back(ScenarioStep{StepKind::kRestart, 0, 1, 0, 0});
    }
    scenario.steps.push_back(
        ScenarioStep{StepKind::kExchange, 4 * c.num_peers, 0, 0, 0});
    scenario.steps.push_back(ScenarioStep{StepKind::kRepair, 4, 2, 0, 0});
    scenario.steps.push_back(ScenarioStep{StepKind::kBarrier, 4, 1, 0, 0});
  }
  return scenario;
}

ScenarioResult RunScenario(const Scenario& scenario) {
  ScenarioRunner runner(scenario);
  return runner.Run();
}

namespace {

Scenario WithSteps(const Scenario& base, std::vector<ScenarioStep> steps) {
  Scenario out;
  out.config = base.config;
  out.steps = std::move(steps);
  return out;
}

bool Fails(const Scenario& s) { return RunScenario(s).failed; }

}  // namespace

Scenario ScenarioFuzzer::Shrink(const Scenario& failing) {
  if (!Fails(failing)) return failing;

  // Phase 1: binary-search the shortest failing prefix. The runner's implicit
  // final barrier makes every prefix a complete scenario, so a prefix fails iff
  // the violation was already present after its last step.
  std::vector<ScenarioStep> steps = failing.steps;
  {
    size_t lo = 0, hi = steps.size();  // invariant: prefix of length hi fails
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      std::vector<ScenarioStep> prefix(steps.begin(), steps.begin() + mid);
      if (Fails(WithSteps(failing, std::move(prefix)))) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    steps.resize(hi);
  }

  // Phase 2: ddmin-style deletion, halving the chunk size until single steps.
  // Note deleting a step shifts the per-step Rng streams of its successors, so
  // each candidate is re-run from scratch -- cheap at these scenario sizes.
  for (size_t chunk = steps.size() / 2; chunk >= 1; chunk /= 2) {
    bool removed_any = true;
    while (removed_any) {
      removed_any = false;
      for (size_t start = 0; start + chunk <= steps.size();) {
        std::vector<ScenarioStep> candidate;
        candidate.reserve(steps.size() - chunk);
        candidate.insert(candidate.end(), steps.begin(), steps.begin() + start);
        candidate.insert(candidate.end(), steps.begin() + start + chunk,
                         steps.end());
        if (Fails(WithSteps(failing, candidate))) {
          steps = std::move(candidate);
          removed_any = true;
        } else {
          start += chunk;
        }
      }
    }
    if (chunk == 1) break;
  }
  return WithSteps(failing, std::move(steps));
}

FuzzOutcome ScenarioFuzzer::Fuzz(const FuzzOptions& options) {
  FuzzOutcome outcome;
  for (size_t i = 0; i < options.num_seeds; ++i) {
    const uint64_t seed = options.base_seed + i;
    Scenario scenario = Generate(seed, options);
    ScenarioResult result = RunScenario(scenario);
    ++outcome.seeds_run;
    bool failed = result.failed;
    if (failed) {
      ++outcome.failures;
      if (outcome.failures == 1) {
        outcome.failing_seed = seed;
        outcome.minimal = Shrink(scenario);
        outcome.failure = RunScenario(outcome.minimal);
      }
    } else if (options.vary_builder_threads &&
               scenario.config.builder_threads > 1) {
      // Thread-count invariance: re-execute the identical scenario with
      // builder_threads = 1. The wave machinery promises the digest is a pure
      // function of the scenario value, not of the thread count, so any
      // mismatch is a determinism bug -- counted as a failure. The scenario is
      // recorded unshrunk: Shrink()'s predicate is invariant failure, and a
      // digest mismatch typically vanishes under any step deletion anyway.
      Scenario serial = scenario;
      serial.config.builder_threads = 1;
      const ScenarioResult baseline = RunScenario(serial);
      if (baseline.digest != result.digest) {
        failed = true;
        ++outcome.failures;
        ++outcome.digest_mismatches;
        if (outcome.failures == 1) {
          outcome.failing_seed = seed;
          outcome.minimal = scenario;
          outcome.failure = result;
        }
      }
    }
    if (failed && options.stop_on_failure) break;
  }
  return outcome;
}

}  // namespace sim
}  // namespace pgrid
