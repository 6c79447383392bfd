// Deterministic fault injection for any RpcTransport.
//
// FaultInjectingTransport decorates an inner transport with a seeded,
// per-address-pattern rule table. Every failure scenario -- "drop 30% of all
// calls", "fail the first 3 calls to node:7", "partition {A,B} from {C,D}
// between virtual times 100 and 200", "answer node:2 with ResourceExhausted" --
// is expressed as a value (FaultRule) instead of ad-hoc test plumbing, so the
// exact drop/delay/duplicate sequence is reproducible from the seed and the
// call sequence alone.
//
// Virtual time: the transport keeps a virtual clock that advances by one unit
// per Call() (and by `delay_units` when a delay rule fires); tests can advance
// it further with AdvanceTime(). Rule windows ([not_before, not_after]) are
// expressed in this clock, which makes schedules like "partition during calls
// 100..200" deterministic without wall-clock sleeps.
//
// Rule evaluation: outages first (a pinned-down node drops everything), then
// rules in insertion order; the first rule that *fires* decides the call's
// fate. A rule fires when its address patterns and time window match, its
// skip/max match window accepts the call, and its probability draw (from the
// transport's seeded RNG) passes. Calls that no rule claims are forwarded to
// the inner transport untouched -- with no rules armed the decorator is fully
// transparent.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/transport.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace pgrid {
namespace net {

/// What a firing rule does to the call.
enum class FaultAction {
  kDrop,       ///< fail with Unavailable, the handler never runs
  kDelay,      ///< deliver, but advance virtual time (and optionally sleep)
  kDuplicate,  ///< deliver twice (the second response is discarded)
  kError,      ///< fail with a configured status, the handler never runs
};

/// One entry of the rule table. Default-constructed fields make the rule match
/// everything, always, with certainty -- tighten whichever dimensions the
/// scenario needs.
struct FaultRule {
  /// Glob patterns over the destination / caller address ('*' matches any run
  /// of characters; everything else is literal).
  std::string to = "*";
  std::string from = "*";

  /// If non-empty, destination membership overrides `to` (used by
  /// PartitionGroups).
  std::vector<std::string> to_any_of;
  /// If non-empty, caller membership overrides `from`.
  std::vector<std::string> from_any_of;

  /// Probability that a matching call actually fires the rule. Draws come from
  /// the transport's seeded RNG, in rule order, so the sequence is
  /// reproducible.
  double probability = 1.0;

  /// Virtual-time window (inclusive) in which the rule is armed.
  uint64_t not_before = 0;
  uint64_t not_after = UINT64_MAX;

  /// Let the first `skip_matches` matching calls through, then fire on at most
  /// `max_matches` of them: "fail calls 4..6 to node:3" is skip=3, max=3.
  uint64_t skip_matches = 0;
  uint64_t max_matches = UINT64_MAX;

  FaultAction action = FaultAction::kDrop;

  /// kDelay: virtual-time units the delivery consumes.
  uint64_t delay_units = 1;
  /// kDelay: optional real sleep (for wall-clock stacks like TcpTransport).
  /// Keep 0 in deterministic tests.
  uint64_t delay_sleep_ms = 0;

  /// kError: status the call fails with.
  StatusCode error_code = StatusCode::kUnavailable;
  std::string error_message = "injected error";
};

/// Matches `addr` against a '*'-glob `pattern`.
bool FaultPatternMatches(const std::string& pattern, const std::string& addr);

/// RpcTransport decorator applying a seeded fault-rule table.
class FaultInjectingTransport : public RpcTransport {
 public:
  /// `inner` must outlive this transport. `registry` hosts the fault.* metrics;
  /// null lets the transport own a private one.
  explicit FaultInjectingTransport(RpcTransport* inner, uint64_t seed = 0,
                                   obs::MetricsRegistry* registry = nullptr);

  Status Serve(const std::string& address, Handler handler) override;
  void StopServing(const std::string& address) override;
  Result<std::string> Call(const std::string& to, const std::string& from,
                           const std::string& request) override;

  /// Installs a rule; returns its id (for RemoveRule).
  uint64_t AddRule(FaultRule rule);
  /// Removes one rule; false if the id is unknown (already removed).
  bool RemoveRule(uint64_t id);
  /// Removes all rules (outages are kept; see ClearOutage).
  void ClearRules();

  // ---- scenario conveniences (each returns the id of the rule it adds) ----

  /// Fails the first `n` calls to addresses matching `to`.
  uint64_t DropFirst(const std::string& to, uint64_t n);
  /// Drops each call to addresses matching `to` with probability `p`.
  uint64_t DropWithProbability(const std::string& to, double p);

  /// Named multi-group partition: installs one drop rule per ordered pair of
  /// distinct groups, so traffic between members of *different* groups is
  /// dropped while the virtual clock is within [t1, t2]; intra-group traffic
  /// and traffic involving unlisted addresses flows. Empty groups are skipped
  /// (an empty any_of list would fall back to the match-all glob). Returns a
  /// partition id whose rules HealPartition removes together.
  uint64_t PartitionGroups(const std::vector<std::vector<std::string>>& groups,
                           uint64_t t1 = 0, uint64_t t2 = UINT64_MAX);
  /// Removes every rule one PartitionGroups registration installed; false if
  /// the id is unknown (already healed, or wiped by ClearRules).
  bool HealPartition(uint64_t partition_id);

  /// Total outage of one address until ClearOutage (checked before the rules).
  void InjectOutage(const std::string& address);
  void ClearOutage(const std::string& address);

  /// Current virtual time (units: calls seen, plus fired delays, plus manual
  /// advances).
  uint64_t virtual_now() const;
  /// Manually advances the virtual clock (scripted schedules).
  void AdvanceTime(uint64_t delta);

  // ---- deterministic counters (also exported as fault.* metrics) ----
  uint64_t delivered_calls() const { return c_delivered_->value(); }
  uint64_t dropped_calls() const { return c_drops_->value(); }
  uint64_t delayed_calls() const { return c_delays_->value(); }
  uint64_t duplicated_calls() const { return c_duplicates_->value(); }
  uint64_t injected_errors() const { return c_errors_->value(); }

  /// The registry holding the fault.* instruments (shared or owned).
  obs::MetricsRegistry& metrics() { return *metrics_; }

 private:
  struct ArmedRule {
    uint64_t id = 0;
    FaultRule rule;
    uint64_t matched = 0;  // statically-matching calls seen so far
  };

  /// The action to apply to one call, decided under the lock.
  struct Decision {
    FaultAction action;
    const FaultRule* rule = nullptr;  // valid only while mu_ is held
    Status failure;                   // for kDrop / kError
    uint64_t sleep_ms = 0;            // for kDelay
  };

  RpcTransport* inner_;

  mutable std::mutex mu_;
  std::vector<ArmedRule> rules_;
  std::unordered_set<std::string> outages_;
  // partition id -> rule ids installed by PartitionGroups.
  std::unordered_map<uint64_t, std::vector<uint64_t>> partitions_;
  uint64_t next_partition_id_ = 1;
  uint64_t next_rule_id_ = 1;
  uint64_t now_ = 0;
  Rng rng_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // set iff none was passed
  obs::MetricsRegistry* metrics_;
  obs::Counter* c_delivered_;
  obs::Counter* c_drops_;
  obs::Counter* c_delays_;
  obs::Counter* c_duplicates_;
  obs::Counter* c_errors_;
  obs::Histogram* h_delay_units_;
};

}  // namespace net
}  // namespace pgrid
