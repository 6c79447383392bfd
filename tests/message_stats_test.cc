#include "sim/message_stats.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace pgrid {
namespace {

TEST(MessageStatsTest, StartsAtZero) {
  obs::MetricsRegistry metrics;
  MessageStats stats(metrics);
  EXPECT_EQ(stats.total(), 0u);
  EXPECT_EQ(stats.count(MessageType::kQuery), 0u);
  // Reading creates no instrument: an export of the registry is unchanged.
  EXPECT_TRUE(metrics.Snapshot().counters.empty());
}

TEST(MessageStatsTest, RecordAccumulatesPerType) {
  obs::MetricsRegistry metrics;
  metrics.GetCounter("exchange.count")->Increment();
  metrics.GetCounter("exchange.count")->Increment(4);
  metrics.GetCounter("search.messages")->Increment(2);
  MessageStats stats(metrics);
  EXPECT_EQ(stats.count(MessageType::kExchange), 5u);
  EXPECT_EQ(stats.count(MessageType::kQuery), 2u);
  EXPECT_EQ(stats.count(MessageType::kUpdate), 0u);
  EXPECT_EQ(stats.total(), 7u);
}

TEST(MessageStatsTest, MappingTableSendsEachCounterToOneType) {
  // The counter -> type table is the definition of every paper message count
  // (docs/observability.md). Each counter gets its own power of two, so every
  // per-type sum spells out exactly which counters it includes.
  obs::MetricsRegistry metrics;
  const char* const kNames[] = {
      "exchange.count",             // 1
      "search.messages",            // 2
      "update.messages",            // 4
      "exchange.entries_moved",     // 8
      "insert.entries_installed",   // 16
      "churn.entries_handed_over",  // 32
      "repair.entries_reconciled",  // 64
      "churn.handovers",            // 128
      "repair.probes",              // 256
      "repair.sync_sessions",       // 512
      "repair.read_repairs",        // 1024
  };
  uint64_t bit = 1;
  for (const char* name : kNames) {
    metrics.GetCounter(name)->Increment(bit);
    bit <<= 1;
  }
  // Counters outside the table count as nothing.
  metrics.GetCounter("exchange.splits")->Increment(1u << 20);
  metrics.GetCounter("search.queries")->Increment(1u << 21);
  metrics.GetCounter("repair.probe_failures")->Increment(1u << 22);
  MessageStats stats(metrics);
  EXPECT_EQ(stats.count(MessageType::kExchange), 1u);
  EXPECT_EQ(stats.count(MessageType::kQuery), 2u);
  EXPECT_EQ(stats.count(MessageType::kUpdate), 4u);
  EXPECT_EQ(stats.count(MessageType::kDataTransfer), 8u + 16 + 32 + 64);
  EXPECT_EQ(stats.count(MessageType::kControl), 128u + 256 + 512 + 1024);
  EXPECT_EQ(stats.total(), 2047u);
}

TEST(MessageStatsTest, TypeNamesAreStable) {
  EXPECT_EQ(MessageTypeName(MessageType::kExchange), "exchange");
  EXPECT_EQ(MessageTypeName(MessageType::kQuery), "query");
  EXPECT_EQ(MessageTypeName(MessageType::kUpdate), "update");
  EXPECT_EQ(MessageTypeName(MessageType::kDataTransfer), "data_transfer");
  EXPECT_EQ(MessageTypeName(MessageType::kControl), "control");
}

}  // namespace
}  // namespace pgrid
