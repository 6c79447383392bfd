// Seeded scenario fuzzing with automatic shrinking.
//
// The fuzzer turns a 64-bit seed into a random but fully determined Scenario
// (sim/scenario.h): community parameters plus an interleaving of exchanges,
// inserts, updates, churn rounds, and transport faults, punctuated by invariant
// barriers. Running many seeds is the deterministic-simulation-testing loop: any
// seed that produces an invariant violation is reproducible forever, and the
// shrinker reduces its scenario to a minimal failing step list (first a binary
// search for the shortest failing prefix, then greedy segment deletion down to
// single steps) that SaveScenario writes as a replayable repro file for
// `pgrid replay`.

#pragma once

#include <cstdint>
#include <string>

#include "sim/scenario.h"

namespace pgrid {
namespace sim {

/// Bounds on generated scenarios, and how many seeds one Fuzz() call sweeps.
struct FuzzOptions {
  uint64_t base_seed = 1;   ///< seeds base_seed .. base_seed + num_seeds - 1
  size_t num_seeds = 50;
  size_t min_steps = 10;    ///< generated steps after the warm-up exchange
  size_t max_steps = 40;
  size_t min_peers = 8;
  size_t max_peers = 48;
  /// Append a deterministic heal-and-converge tail to every generated scenario:
  /// a full transport heal, a mixing-exchange window, repair ticks, and a
  /// *strict* barrier demanding repair convergence among the survivors. This is
  /// the self-healing sweep of the repair legs of tools/check.sh: whatever mess
  /// the random steps made, the repair protocol must restore a routable,
  /// replica-agreeing grid. Forces online_prob = 1 so "converged" is not masked
  /// by sampling.
  bool heal_tail = false;
  /// Draw a builder thread count (1, 2, 4, or 8) per scenario and route its
  /// exchange steps through ParallelGridBuilder::RunMeetings (see
  /// ScenarioConfig::builder_threads). Every clean multi-threaded run is then
  /// re-executed at builder_threads = 1 and the two digests must match --
  /// a mismatch counts as a failure (FuzzOutcome::digest_mismatches). The
  /// thread count is drawn after every other generator draw, so turning the
  /// sweep on does not perturb the step list of any seed.
  bool vary_builder_threads = false;
  /// Crash-restart sweep: the generator's weight table gains kKill / kRestart
  /// steps (peers crash with durable state and later recover from snapshot +
  /// WAL, see StepKind::kKill), and the heal tail restarts every still-killed
  /// peer before its strict barrier -- so each seed asserts that a grid churned
  /// through durable crashes converges back to a routable, replica-agreeing
  /// state. Implies heal_tail semantics for the tail (forces online_prob = 1).
  /// Changes the generator's draw sequence, so crash-sweep seeds are a
  /// different corpus from plain seeds.
  bool crash_sweep = false;
  /// Macro-fault sweep: the generator's weight table gains the grid-scale
  /// events of docs/robustness.md -- kPartition / kCrashWave / kFlashCrowd /
  /// kSlowNode / kMassJoin -- and the heal tail first heals any live partition
  /// (running anti-entropy to convergence, which fails the seed if replica
  /// agreement cannot be restored) and clears every gray-failure mark before
  /// the restart-all / mixing / repair / strict-barrier sequence. Each seed
  /// then asserts that a grid dragged through partitions, correlated crash
  /// waves, flash crowds, and slow nodes degrades gracefully and converges
  /// back. Implies heal_tail semantics (forces online_prob = 1). Changes the
  /// generator's draw sequence, so macro-sweep seeds are their own corpus.
  /// Mutually exclusive with crash_sweep (crash_sweep wins if both are set).
  bool macro_sweep = false;
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
