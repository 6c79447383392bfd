// Seeded scenario fuzzing with automatic shrinking.
//
// The fuzzer turns a 64-bit seed into a random but fully determined Scenario
// (sim/scenario.h) of one corpus (FuzzCorpus): community parameters plus an
// interleaving of exchanges, inserts, updates, churn rounds, and transport
// faults, punctuated by invariant barriers. Running many seeds is the
// deterministic-simulation-testing loop: any seed that produces an invariant
// violation is reproducible forever, and the shrinker reduces its scenario to a
// minimal failing step list (first a binary search for the shortest failing
// prefix, then greedy segment deletion down to single steps) that SaveScenario
// writes as a replayable repro file for `pgrid replay`.

#pragma once

#include <cstdint>
#include <string>

#include "sim/scenario.h"

namespace pgrid {
namespace sim {

/// Which scenarios Generate draws: the step mix of the random steps (one weight
/// table per corpus in fuzzer.cc) and the tail appended after them. Every
/// corpus but kPlain ends in a heal-and-converge tail -- lift every transport
/// fault, re-mix the survivors with exchanges, run repair ticks, then a
/// *strict* barrier demanding repair convergence -- and forces online_prob = 1
/// so "converged" is not masked by sampling.
enum class FuzzCorpus {
  /// Interleavings of exchanges, inserts, updates, churn rounds, transport
  /// faults and repair rounds, punctuated by invariant barriers.
  kPlain,
  /// The plain steps, then the tail: whatever mess the steps made, the repair
  /// protocol must restore a routable, replica-agreeing grid.
  kHealTail,
  /// The mix gains kKill / kRestart (peers crash with durable state and recover
  /// from snapshot + WAL), and the tail first restarts every still-killed peer,
  /// so the strict barrier covers recovered peers too.
  kCrash,
  /// The mix gains the grid-scale events of docs/robustness.md (kPartition,
  /// kCrashWave, kFlashCrowd, kSlowNode, kMassJoin), and the tail first heals
  /// any live partition (anti-entropy to convergence, which fails the seed if
  /// replica agreement cannot be restored), clears every gray-failure mark and
  /// restarts every killed peer. A grid dragged through these events may
  /// degrade but must converge back.
  kMacro,
};

/// Bounds on generated scenarios, and how many seeds one Fuzz() call sweeps.
struct FuzzOptions {
  uint64_t base_seed = 1;   ///< seeds base_seed .. base_seed + num_seeds - 1
  size_t num_seeds = 50;
  size_t min_steps = 10;    ///< generated steps after the warm-up exchange
  size_t max_steps = 40;
  size_t min_peers = 8;
  size_t max_peers = 48;
  FuzzCorpus corpus = FuzzCorpus::kPlain;  ///< step mix and tail
  /// Draw a builder thread count (1, 2, 4, or 8) per scenario and route its
  /// exchange steps through ParallelGridBuilder::RunMeetings (see
  /// ScenarioConfig::builder_threads). Every clean multi-threaded run is then
  /// re-executed at builder_threads = 1 and the two digests must match --
  /// a mismatch counts as a failure (FuzzOutcome::digest_mismatches). The
  /// thread count is drawn after every other generator draw, so turning the
  /// sweep on does not perturb the step list of any seed, in any corpus.
  bool vary_builder_threads = false;
  /// Stop sweeping at the first failing seed (the shrunk repro is in the
  /// outcome either way).
  bool stop_on_failure = true;
};

/// Result of one Fuzz() sweep.
struct FuzzOutcome {
  size_t seeds_run = 0;
  size_t failures = 0;

  /// Of `failures`, how many were thread-sweep digest mismatches (a
  /// multi-threaded run disagreeing with its builder_threads = 1 re-execution)
  /// rather than invariant violations. Only nonzero with
  /// FuzzOptions::vary_builder_threads.
  size_t digest_mismatches = 0;

  /// Set iff failures > 0: the first failing seed, its shrunk scenario, and the
  /// failure that scenario still reproduces. Digest mismatches are recorded
  /// unshrunk (the shrinker's predicate is invariant failure).
  uint64_t failing_seed = 0;
  Scenario minimal;
  ScenarioResult failure;
};

class ScenarioFuzzer {
 public:
  /// Deterministically derives a scenario from `seed` within `options`' bounds.
  /// The same (seed, bounds) always yields the same scenario, byte for byte.
  static Scenario Generate(uint64_t seed, const FuzzOptions& options = {});

  /// Shrinks a failing scenario to a minimal step list that still fails.
  /// Requires Run(failing).failed; returns `failing` unchanged otherwise.
  static Scenario Shrink(const Scenario& failing);

  /// Sweeps seeds: generate, run, and on failure shrink. Pure function of
  /// `options`.
  static FuzzOutcome Fuzz(const FuzzOptions& options);
};

/// Runs `scenario` and returns its result (convenience wrapper constructing a
/// fresh ScenarioRunner).
ScenarioResult RunScenario(const Scenario& scenario);

}  // namespace sim
}  // namespace pgrid
