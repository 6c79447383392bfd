#include "net/retry.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "util/macros.h"

namespace pgrid {
namespace net {

Status RetryConfig::Validate() const {
  if (max_attempts == 0) {
    return Status::InvalidArgument("retry max_attempts must be >= 1");
  }
  if (backoff_multiplier < 1.0) {
    return Status::InvalidArgument("retry backoff_multiplier must be >= 1.0");
  }
  if (jitter < 0.0 || jitter > 1.0) {
    return Status::InvalidArgument("retry jitter must be in [0, 1]");
  }
  return Status::OK();
}

RetryPolicy::RetryPolicy(const RetryConfig& config, uint64_t seed,
                         obs::MetricsRegistry* registry)
    : config_(config),
      rng_(seed),
      budget_left_(config.retry_budget) {
  PGRID_CHECK(config.Validate().ok());
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_metrics_.get();
  }
  metrics_ = registry;
  c_retries_ = metrics_->GetCounter("rpc.retries");
  c_exhausted_ = metrics_->GetCounter("rpc.retry_exhausted");
  c_budget_exhausted_ = metrics_->GetCounter("rpc.retry_budget_exhausted");
  c_deadline_ = metrics_->GetCounter("rpc.retry_deadline_exceeded");
  h_backoff_ms_ = metrics_->GetHistogram("rpc.retry_backoff_ms", obs::BackoffBoundsMs());
}

uint64_t RetryPolicy::NextBackoffMs(size_t retry_index) {
  double backoff = static_cast<double>(config_.initial_backoff_ms) *
                   std::pow(config_.backoff_multiplier,
                            static_cast<double>(retry_index));
  backoff = std::min(backoff, static_cast<double>(config_.max_backoff_ms));
  if (config_.jitter > 0.0) {
    std::lock_guard<std::mutex> lock(mu_);
    backoff *= 1.0 - config_.jitter * rng_.UniformDouble();
  }
  return static_cast<uint64_t>(backoff + 0.5);
}

Result<std::string> RetryPolicy::Call(RpcTransport* transport, const std::string& to,
                                      const std::string& from,
                                      const std::string& request) {
  // Only a deadline reads the clock, so a call without one stays clock-free.
  const auto start = config_.deadline_ms > 0 ? std::chrono::steady_clock::now()
                                             : std::chrono::steady_clock::time_point{};
  uint64_t backoff_elapsed_ms = 0;  // virtual time spent waiting so far
  Status last = Status::Unavailable("no attempt made");
  for (size_t attempt = 0;; ++attempt) {
    Result<std::string> result = transport->Call(to, from, request);
    if (result.ok() || !IsRetryable(result.status())) return result;
    last = result.status();
    if (attempt + 1 >= config_.max_attempts) {
      if (config_.max_attempts > 1) c_exhausted_->Increment();
      return last;
    }
    const uint64_t backoff = NextBackoffMs(attempt);
    if (config_.deadline_ms > 0) {
      const uint64_t wall_ms = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      if (backoff_elapsed_ms + backoff > config_.deadline_ms ||
          wall_ms + backoff > config_.deadline_ms) {
        c_deadline_->Increment();
        return Status::DeadlineExceeded(
            "call to " + to + " abandoned after " +
            std::to_string(backoff_elapsed_ms) + " ms of backoff (deadline " +
            std::to_string(config_.deadline_ms) + " ms): " + last.message());
      }
    }
    if (config_.retry_budget > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      if (budget_left_ == 0) {
        c_budget_exhausted_->Increment();
        return last;
      }
      --budget_left_;
    }
    backoff_elapsed_ms += backoff;
    h_backoff_ms_->Record(backoff);
    c_retries_->Increment();
    if (config_.sleep_between_attempts && backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
  }
}

}  // namespace net
}  // namespace pgrid
