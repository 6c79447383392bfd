#include "net/fault_transport.h"

#include <chrono>
#include <thread>
#include <utility>

#include "util/macros.h"

namespace pgrid {
namespace net {

bool FaultPatternMatches(const std::string& pattern, const std::string& addr) {
  // Iterative '*'-glob: on mismatch, backtrack to the last star and consume one
  // more address character.
  size_t p = 0, a = 0;
  size_t star = std::string::npos, star_a = 0;
  while (a < addr.size()) {
    if (p < pattern.size() && (pattern[p] == addr[a])) {
      ++p;
      ++a;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_a = a;
    } else if (star != std::string::npos) {
      p = star + 1;
      a = ++star_a;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

namespace {

bool AddrSideMatches(const std::string& pattern,
                     const std::vector<std::string>& any_of,
                     const std::string& addr) {
  if (!any_of.empty()) {
    for (const std::string& a : any_of) {
      if (a == addr) return true;
    }
    return false;
  }
  return FaultPatternMatches(pattern, addr);
}

}  // namespace

FaultInjectingTransport::FaultInjectingTransport(RpcTransport* inner, uint64_t seed,
                                                 obs::MetricsRegistry* registry)
    : inner_(inner), rng_(seed) {
  PGRID_CHECK(inner != nullptr);
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_metrics_.get();
  }
  metrics_ = registry;
  c_delivered_ = metrics_->GetCounter("fault.delivered");
  c_drops_ = metrics_->GetCounter("fault.drops");
  c_delays_ = metrics_->GetCounter("fault.delays");
  c_duplicates_ = metrics_->GetCounter("fault.duplicates");
  c_errors_ = metrics_->GetCounter("fault.errors");
  h_delay_units_ = metrics_->GetHistogram("fault.delay_units", obs::CountBounds());
}

Status FaultInjectingTransport::Serve(const std::string& address, Handler handler) {
  return inner_->Serve(address, std::move(handler));
}

void FaultInjectingTransport::StopServing(const std::string& address) {
  inner_->StopServing(address);
}

uint64_t FaultInjectingTransport::AddRule(FaultRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  ArmedRule armed;
  armed.id = next_rule_id_++;
  armed.rule = std::move(rule);
  rules_.push_back(std::move(armed));
  return rules_.back().id;
}

bool FaultInjectingTransport::RemoveRule(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if (it->id == id) {
      rules_.erase(it);
      return true;
    }
  }
  return false;
}

void FaultInjectingTransport::ClearRules() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  partitions_.clear();
}

uint64_t FaultInjectingTransport::DropFirst(const std::string& to, uint64_t n) {
  FaultRule rule;
  rule.to = to;
  rule.max_matches = n;
  rule.action = FaultAction::kDrop;
  return AddRule(std::move(rule));
}

uint64_t FaultInjectingTransport::DropWithProbability(const std::string& to,
                                                      double p) {
  FaultRule rule;
  rule.to = to;
  rule.probability = p;
  rule.action = FaultAction::kDrop;
  return AddRule(std::move(rule));
}

uint64_t FaultInjectingTransport::PartitionGroups(
    const std::vector<std::vector<std::string>>& groups, uint64_t t1, uint64_t t2) {
  std::vector<uint64_t> rule_ids;
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].empty()) continue;
    for (size_t j = 0; j < groups.size(); ++j) {
      if (j == i || groups[j].empty()) continue;
      FaultRule rule;
      rule.from_any_of = groups[i];
      rule.to_any_of = groups[j];
      rule.not_before = t1;
      rule.not_after = t2;
      rule.action = FaultAction::kDrop;
      rule_ids.push_back(AddRule(std::move(rule)));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_partition_id_++;
  partitions_[id] = std::move(rule_ids);
  return id;
}

bool FaultInjectingTransport::HealPartition(uint64_t partition_id) {
  std::vector<uint64_t> rule_ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = partitions_.find(partition_id);
    if (it == partitions_.end()) return false;
    rule_ids = std::move(it->second);
    partitions_.erase(it);
  }
  for (uint64_t id : rule_ids) RemoveRule(id);
  return true;
}

void FaultInjectingTransport::InjectOutage(const std::string& address) {
  std::lock_guard<std::mutex> lock(mu_);
  outages_.insert(address);
}

void FaultInjectingTransport::ClearOutage(const std::string& address) {
  std::lock_guard<std::mutex> lock(mu_);
  outages_.erase(address);
}

uint64_t FaultInjectingTransport::virtual_now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_;
}

void FaultInjectingTransport::AdvanceTime(uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  now_ += delta;
}

Result<std::string> FaultInjectingTransport::Call(const std::string& to,
                                                  const std::string& from,
                                                  const std::string& request) {
  bool duplicate = false;
  uint64_t sleep_ms = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t t = now_++;  // this call happens at time t
    if (outages_.contains(to)) {
      c_drops_->Increment();
      return Status::Unavailable("injected outage at " + to);
    }
    for (ArmedRule& armed : rules_) {
      const FaultRule& rule = armed.rule;
      if (t < rule.not_before || t > rule.not_after) continue;
      if (!AddrSideMatches(rule.to, rule.to_any_of, to)) continue;
      if (!AddrSideMatches(rule.from, rule.from_any_of, from)) continue;
      const uint64_t match_index = armed.matched++;
      if (match_index < rule.skip_matches) continue;
      if (match_index >= rule.skip_matches + rule.max_matches) continue;
      if (rule.probability < 1.0 && !rng_.Bernoulli(rule.probability)) continue;
      switch (rule.action) {
        case FaultAction::kDrop:
          c_drops_->Increment();
          return Status::Unavailable("fault: dropped call to " + to);
        case FaultAction::kError:
          c_errors_->Increment();
          return Status(rule.error_code, rule.error_message);
        case FaultAction::kDelay:
          c_delays_->Increment();
          h_delay_units_->Record(rule.delay_units);
          now_ += rule.delay_units;
          sleep_ms = rule.delay_sleep_ms;
          break;
        case FaultAction::kDuplicate:
          c_duplicates_->Increment();
          duplicate = true;
          break;
      }
      break;  // first firing rule decides
    }
    c_delivered_->Increment();
  }
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  Result<std::string> response = inner_->Call(to, from, request);
  if (duplicate) {
    // Second delivery of the same request; its response is discarded, matching
    // the at-least-once behaviour of a retransmitting network.
    (void)inner_->Call(to, from, request);
  }
  return response;
}

}  // namespace net
}  // namespace pgrid
