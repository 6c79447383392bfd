// The fault-injection decorator: rule matching, scripted schedules, virtual
// time, duplicate delivery, determinism (a scenario is a *value*: same seed and
// call sequence imply the identical fault sequence), and full transparency when
// no rules are armed.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "obs/export.h"

namespace pgrid {
namespace net {
namespace {

RpcTransport::Handler Echo() {
  return [](const std::string& from, const std::string& req) {
    return from + "|" + req;
  };
}

TEST(FaultPatternTest, GlobMatching) {
  EXPECT_TRUE(FaultPatternMatches("*", "anything:at:all"));
  EXPECT_TRUE(FaultPatternMatches("*", ""));
  EXPECT_TRUE(FaultPatternMatches("node:3", "node:3"));
  EXPECT_FALSE(FaultPatternMatches("node:3", "node:33"));
  EXPECT_TRUE(FaultPatternMatches("node:*", "node:17"));
  EXPECT_FALSE(FaultPatternMatches("node:*", "peer:17"));
  EXPECT_TRUE(FaultPatternMatches("*:7000", "127.0.0.1:7000"));
  EXPECT_FALSE(FaultPatternMatches("*:7000", "127.0.0.1:7001"));
  EXPECT_TRUE(FaultPatternMatches("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(FaultPatternMatches("a*b*c", "a-x-c-y-b"));
  EXPECT_FALSE(FaultPatternMatches("", "x"));
  EXPECT_TRUE(FaultPatternMatches("", ""));
}

TEST(FaultTransportTest, TransparentWhenNoRulesArmed) {
  InProcTransport inner;
  FaultInjectingTransport faults(&inner, /*seed=*/1);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  for (int i = 0; i < 50; ++i) {
    auto r = faults.Call("a", "c", "m" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(*r, "c|m" + std::to_string(i));
  }
  EXPECT_EQ(faults.delivered_calls(), 50u);
  EXPECT_EQ(faults.dropped_calls(), 0u);
  EXPECT_EQ(inner.delivered_calls(), 50u);
  faults.StopServing("a");
  EXPECT_TRUE(faults.Call("a", "c", "x").status().IsUnavailable());
}

TEST(FaultTransportTest, DropFirstNIsAScriptedSchedule) {
  InProcTransport inner;
  FaultInjectingTransport faults(&inner, 1);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  ASSERT_TRUE(faults.Serve("b", Echo()).ok());
  faults.DropFirst("a", 2);
  EXPECT_TRUE(faults.Call("a", "c", "1").status().IsUnavailable());
  EXPECT_TRUE(faults.Call("b", "c", "x").ok());  // other addresses unaffected
  EXPECT_TRUE(faults.Call("a", "c", "2").status().IsUnavailable());
  EXPECT_TRUE(faults.Call("a", "c", "3").ok());  // budget of 2 spent
  EXPECT_TRUE(faults.Call("a", "c", "4").ok());
  EXPECT_EQ(faults.dropped_calls(), 2u);
}

TEST(FaultTransportTest, SkipWindowFailsCallsKThroughKPlusN) {
  InProcTransport inner;
  FaultInjectingTransport faults(&inner, 1);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  FaultRule rule;
  rule.to = "a";
  rule.skip_matches = 1;  // let the first call through
  rule.max_matches = 2;   // then fail the next two
  faults.AddRule(rule);
  EXPECT_TRUE(faults.Call("a", "c", "1").ok());
  EXPECT_FALSE(faults.Call("a", "c", "2").ok());
  EXPECT_FALSE(faults.Call("a", "c", "3").ok());
  EXPECT_TRUE(faults.Call("a", "c", "4").ok());
}

TEST(FaultTransportTest, FromPatternSelectsCaller) {
  InProcTransport inner;
  FaultInjectingTransport faults(&inner, 1);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  FaultRule rule;
  rule.to = "a";
  rule.from = "evil:*";
  faults.AddRule(rule);
  EXPECT_FALSE(faults.Call("a", "evil:1", "x").ok());
  EXPECT_TRUE(faults.Call("a", "good:1", "x").ok());
}

TEST(FaultTransportTest, PartitionIsBidirectionalAndTimeWindowed) {
  InProcTransport inner;
  FaultInjectingTransport faults(&inner, 1);
  for (const char* addr : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(faults.Serve(addr, Echo()).ok());
  }
  // Partition {a,b} from {c,d} while the virtual clock is within [100, 200].
  faults.PartitionGroups({{"a", "b"}, {"c", "d"}}, 100, 200);

  // Before the window everything flows.
  EXPECT_TRUE(faults.Call("c", "a", "x").ok());
  EXPECT_TRUE(faults.Call("a", "d", "x").ok());

  faults.AdvanceTime(100);  // into the window
  EXPECT_FALSE(faults.Call("c", "a", "x").ok());  // a -> c cut
  EXPECT_FALSE(faults.Call("b", "d", "x").ok());  // d -> b cut (other direction)
  EXPECT_TRUE(faults.Call("b", "a", "x").ok());   // within a side: fine
  EXPECT_TRUE(faults.Call("d", "c", "x").ok());

  faults.AdvanceTime(200);  // past the window: the partition heals by schedule
  EXPECT_TRUE(faults.Call("c", "a", "x").ok());
  EXPECT_TRUE(faults.Call("b", "d", "x").ok());
}

TEST(FaultTransportTest, PartitionGroupsSkipsEmptyGroups) {
  InProcTransport inner;
  FaultInjectingTransport faults(&inner, 1);
  for (const char* addr : {"a", "b", "c"}) {
    ASSERT_TRUE(faults.Serve(addr, Echo()).ok());
  }
  // An empty side cuts nothing: its rule would match every address, so the
  // other group would lose even its own members.
  const uint64_t id = faults.PartitionGroups({{"a", "b"}, {}});
  for (const char* to : {"a", "b", "c"}) {
    for (const char* from : {"a", "b", "c"}) {
      EXPECT_TRUE(faults.Call(to, from, "x").ok()) << from << " -> " << to;
    }
  }
  EXPECT_EQ(faults.dropped_calls(), 0u);
  EXPECT_TRUE(faults.HealPartition(id));

  // The non-empty groups around an empty one are still cut from each other.
  faults.PartitionGroups({{"a"}, {}, {"c"}});
  EXPECT_FALSE(faults.Call("c", "a", "x").ok());
  EXPECT_FALSE(faults.Call("a", "c", "x").ok());
  EXPECT_TRUE(faults.Call("b", "a", "x").ok());
  EXPECT_TRUE(faults.Call("a", "b", "x").ok());
  EXPECT_TRUE(faults.Call("a", "a", "x").ok());
  EXPECT_EQ(faults.dropped_calls(), 2u);
}

TEST(FaultTransportTest, HealPartitionRemovesExactlyItsOwnRules) {
  InProcTransport inner;
  FaultInjectingTransport faults(&inner, 1);
  for (const char* addr : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(faults.Serve(addr, Echo()).ok());
  }
  const uint64_t drop_d = faults.DropFirst("d", 1000);
  const uint64_t ab = faults.PartitionGroups({{"a"}, {"b"}});
  const uint64_t ac = faults.PartitionGroups({{"a"}, {"c"}});
  EXPECT_FALSE(faults.Call("b", "a", "x").ok());
  EXPECT_FALSE(faults.Call("c", "a", "x").ok());

  EXPECT_TRUE(faults.HealPartition(ab));
  EXPECT_TRUE(faults.Call("b", "a", "x").ok());   // healed, both directions
  EXPECT_TRUE(faults.Call("a", "b", "x").ok());
  EXPECT_FALSE(faults.Call("c", "a", "x").ok());  // the other partition holds
  EXPECT_FALSE(faults.Call("a", "c", "x").ok());
  EXPECT_FALSE(faults.Call("d", "a", "x").ok());  // so does the plain rule
  EXPECT_FALSE(faults.HealPartition(ab));         // already healed

  EXPECT_TRUE(faults.RemoveRule(drop_d));
  EXPECT_TRUE(faults.HealPartition(ac));
  EXPECT_TRUE(faults.Call("c", "a", "x").ok());
  EXPECT_TRUE(faults.Call("d", "a", "x").ok());
}

TEST(FaultTransportTest, ClearRulesForgetsThePartition) {
  InProcTransport inner;
  FaultInjectingTransport faults(&inner, 1);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  ASSERT_TRUE(faults.Serve("b", Echo()).ok());
  const uint64_t id = faults.PartitionGroups({{"a"}, {"b"}});
  EXPECT_FALSE(faults.Call("b", "a", "x").ok());
  faults.ClearRules();
  EXPECT_TRUE(faults.Call("b", "a", "x").ok());
  EXPECT_FALSE(faults.HealPartition(id));  // its rules went with the rest
}

TEST(FaultTransportTest, DelayAdvancesVirtualTime) {
  InProcTransport inner;
  FaultInjectingTransport faults(&inner, 1);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  FaultRule rule;
  rule.to = "a";
  rule.action = FaultAction::kDelay;
  rule.delay_units = 5;
  rule.max_matches = 1;
  faults.AddRule(rule);
  EXPECT_EQ(faults.virtual_now(), 0u);
  EXPECT_TRUE(faults.Call("a", "c", "x").ok());  // delivered, but 1 + 5 units later
  EXPECT_EQ(faults.virtual_now(), 6u);
  EXPECT_EQ(faults.delayed_calls(), 1u);
  EXPECT_TRUE(faults.Call("a", "c", "y").ok());
  EXPECT_EQ(faults.virtual_now(), 7u);  // rule exhausted: only the call tick
}

TEST(FaultTransportTest, DuplicateDeliversTwiceAnswersOnce) {
  InProcTransport inner;
  int invocations = 0;
  ASSERT_TRUE(inner
                  .Serve("a",
                         [&invocations](const std::string&, const std::string&) {
                           ++invocations;
                           return std::string("r") + std::to_string(invocations);
                         })
                  .ok());
  FaultInjectingTransport faults(&inner, 1);
  FaultRule rule;
  rule.to = "a";
  rule.action = FaultAction::kDuplicate;
  rule.max_matches = 1;
  faults.AddRule(rule);
  auto r = faults.Call("a", "c", "x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "r1");          // caller sees the first response
  EXPECT_EQ(invocations, 2);    // the handler saw the message twice
  EXPECT_EQ(faults.duplicated_calls(), 1u);
  ASSERT_TRUE(faults.Call("a", "c", "y").ok());
  EXPECT_EQ(invocations, 3);    // back to exactly-once
}

TEST(FaultTransportTest, ErrorInjectionSurfacesConfiguredStatus) {
  InProcTransport inner;
  FaultInjectingTransport faults(&inner, 1);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  FaultRule rule;
  rule.to = "a";
  rule.action = FaultAction::kError;
  rule.error_code = StatusCode::kResourceExhausted;
  rule.error_message = "quota";
  rule.max_matches = 1;
  faults.AddRule(rule);
  auto r = faults.Call("a", "c", "x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().message(), "quota");
  EXPECT_EQ(faults.injected_errors(), 1u);
  EXPECT_TRUE(faults.Call("a", "c", "y").ok());
}

TEST(FaultTransportTest, OutagesApplyBeforeRulesAndClear) {
  InProcTransport inner;
  FaultInjectingTransport faults(&inner, 1);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  faults.InjectOutage("a");
  EXPECT_TRUE(faults.Call("a", "c", "x").status().IsUnavailable());
  faults.ClearOutage("a");
  EXPECT_TRUE(faults.Call("a", "c", "x").ok());
}

TEST(FaultTransportTest, RemoveRuleDisarms) {
  InProcTransport inner;
  FaultInjectingTransport faults(&inner, 1);
  ASSERT_TRUE(faults.Serve("a", Echo()).ok());
  const uint64_t id = faults.DropFirst("a", 1000);
  EXPECT_FALSE(faults.Call("a", "c", "x").ok());
  EXPECT_TRUE(faults.RemoveRule(id));
  EXPECT_FALSE(faults.RemoveRule(id));  // already gone
  EXPECT_TRUE(faults.Call("a", "c", "x").ok());
}

// The heart of the subsystem: a probabilistic scenario is reproducible. Two
// independent transports with the same seed and the same call sequence produce
// the identical drop pattern -- and byte-identical metrics snapshots.
TEST(FaultTransportTest, SameSeedSameDropSequenceAndMetrics) {
  auto run = [](uint64_t seed) {
    InProcTransport inner;
    FaultInjectingTransport faults(&inner, seed);
    EXPECT_TRUE(faults.Serve("a", Echo()).ok());
    faults.DropWithProbability("a", 0.3);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      pattern.push_back(faults.Call("a", "c", "m").ok());
    }
    return std::make_pair(pattern, obs::ToJson(faults.metrics().Snapshot()));
  };
  auto [pattern1, json1] = run(42);
  auto [pattern2, json2] = run(42);
  EXPECT_EQ(pattern1, pattern2);
  EXPECT_EQ(json1, json2);  // byte-identical snapshot for a fixed seed

  auto [pattern3, json3] = run(43);
  EXPECT_NE(pattern1, pattern3);  // a different seed is a different scenario
}

}  // namespace
}  // namespace net
}  // namespace pgrid
