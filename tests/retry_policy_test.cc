// RetryPolicy: exact backoff arithmetic for a fixed seed, deadline enforcement
// over the virtual backoff clock, budget accounting across calls, and the
// retry loop against scripted transport faults.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "net/retry.h"

namespace pgrid {
namespace net {
namespace {

RpcTransport::Handler Echo() {
  return [](const std::string& from, const std::string& req) {
    return from + "|" + req;
  };
}

/// A no-sleep config suitable for deterministic tests.
RetryConfig TestConfig(size_t attempts) {
  RetryConfig config;
  config.max_attempts = attempts;
  config.initial_backoff_ms = 10;
  config.backoff_multiplier = 2.0;
  config.max_backoff_ms = 80;
  config.sleep_between_attempts = false;
  return config;
}

TEST(RetryConfigTest, ValidateRejectsBadKnobs) {
  RetryConfig config;
  config.max_attempts = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = RetryConfig{};
  config.backoff_multiplier = 0.5;
  EXPECT_FALSE(config.Validate().ok());
  config = RetryConfig{};
  config.jitter = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(RetryConfig{}.Validate().ok());
}

TEST(RetryPolicyTest, BackoffSequenceIsExactWithoutJitter) {
  RetryPolicy policy(TestConfig(10), /*seed=*/1);
  std::vector<uint64_t> got;
  for (size_t k = 0; k < 6; ++k) got.push_back(policy.NextBackoffMs(k));
  EXPECT_EQ(got, (std::vector<uint64_t>{10, 20, 40, 80, 80, 80}));  // capped at 80
}

TEST(RetryPolicyTest, JitteredBackoffIsSeedDeterministic) {
  RetryConfig config = TestConfig(10);
  config.jitter = 0.5;
  auto sequence = [&config](uint64_t seed) {
    RetryPolicy policy(config, seed);
    std::vector<uint64_t> out;
    for (size_t k = 0; k < 8; ++k) out.push_back(policy.NextBackoffMs(k));
    return out;
  };
  EXPECT_EQ(sequence(9), sequence(9));    // same seed, same exact sequence
  EXPECT_NE(sequence(9), sequence(10));   // different seed, different draws
  // Jitter only ever shaves off: every value within [backoff/2, backoff].
  RetryPolicy policy(config, 9);
  for (size_t k = 0; k < 8; ++k) {
    const uint64_t full = std::min<uint64_t>(80, 10u << k);
    const uint64_t b = policy.NextBackoffMs(k);
    EXPECT_GE(b, full / 2);
    EXPECT_LE(b, full);
  }
}

TEST(RetryPolicyTest, RetriesThroughTransientDrops) {
  InProcTransport bus;
  FaultInjectingTransport faults(&bus);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  faults.DropFirst("a", 2);
  RetryPolicy policy(TestConfig(4), 1);
  auto r = policy.Call(&faults, "a", "me", "hello");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "me|hello");
  EXPECT_EQ(policy.retries(), 2u);  // exactly the scripted drops
  EXPECT_EQ(policy.exhausted(), 0u);
}

TEST(RetryPolicyTest, ExhaustsBoundedAttempts) {
  InProcTransport bus;
  FaultInjectingTransport faults(&bus);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  faults.DropFirst("a", 100);
  RetryPolicy policy(TestConfig(3), 1);
  auto r = policy.Call(&faults, "a", "me", "hello");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());  // the last transport error, verbatim
  EXPECT_EQ(policy.retries(), 2u);          // 3 attempts = 2 retries
  EXPECT_EQ(policy.exhausted(), 1u);
}

TEST(RetryPolicyTest, NonRetryableErrorsAreNotRetried) {
  InProcTransport bus;
  FaultInjectingTransport faults(&bus);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  FaultRule rule;
  rule.to = "a";
  rule.action = FaultAction::kError;
  rule.error_code = StatusCode::kResourceExhausted;
  faults.AddRule(rule);
  RetryPolicy policy(TestConfig(5), 1);
  auto r = policy.Call(&faults, "a", "me", "hello");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(policy.retries(), 0u);  // the peer answered; retrying cannot help
}

TEST(RetryPolicyTest, DeadlineCapsTotalBackoffTime) {
  InProcTransport bus;
  FaultInjectingTransport faults(&bus);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  faults.DropFirst("a", 100);
  RetryConfig config = TestConfig(10);
  config.deadline_ms = 25;  // allows the 10 ms backoff, not 10 + 20
  RetryPolicy policy(config, 1);
  auto r = policy.Call(&faults, "a", "me", "hello");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(policy.retries(), 1u);
  EXPECT_EQ(policy.deadline_exceeded(), 1u);
}

TEST(RetryPolicyTest, BudgetIsSharedAcrossCalls) {
  InProcTransport bus;
  FaultInjectingTransport faults(&bus);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  faults.DropFirst("a", 100);
  RetryConfig config = TestConfig(3);
  config.retry_budget = 3;
  RetryPolicy policy(config, 1);
  // First call: 3 attempts, 2 retries spent from the budget.
  EXPECT_FALSE(policy.Call(&faults, "a", "me", "x").ok());
  EXPECT_EQ(policy.retries(), 2u);
  // Second call: only 1 budget unit left; the call stops after spending it.
  EXPECT_FALSE(policy.Call(&faults, "a", "me", "y").ok());
  EXPECT_EQ(policy.retries(), 3u);
  EXPECT_EQ(policy.metrics().GetCounter("rpc.retry_budget_exhausted")->value(), 1u);
  // Third call: no budget at all -- single shot.
  EXPECT_FALSE(policy.Call(&faults, "a", "me", "z").ok());
  EXPECT_EQ(policy.retries(), 3u);
}

TEST(RetryPolicyTest, SingleAttemptMatchesBareTransportCall) {
  InProcTransport bus;
  FaultInjectingTransport faults(&bus);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  faults.DropFirst("a", 1);
  RetryPolicy policy(TestConfig(1), 1);  // the library default: no retries
  EXPECT_TRUE(policy.Call(&faults, "a", "me", "x").status().IsUnavailable());
  EXPECT_EQ(policy.retries(), 0u);
  EXPECT_EQ(policy.exhausted(), 0u);  // nothing was retried, nothing exhausted
  EXPECT_TRUE(policy.Call(&faults, "a", "me", "x").ok());
}

TEST(RetryPolicyTest, BackoffHistogramRecordsEachWait) {
  InProcTransport bus;
  FaultInjectingTransport faults(&bus);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  faults.DropFirst("a", 3);
  RetryPolicy policy(TestConfig(4), 1);
  ASSERT_TRUE(policy.Call(&faults, "a", "me", "x").ok());
  obs::Histogram* h =
      policy.metrics().GetHistogram("rpc.retry_backoff_ms", obs::BackoffBoundsMs());
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->sum(), 10u + 20u + 40u);
}

}  // namespace
}  // namespace net
}  // namespace pgrid
