#include "sim/message_stats.h"

#include <gtest/gtest.h>

namespace pgrid {
namespace {

TEST(MessageStatsTest, StartsAtZero) {
  MessageStats stats;
  EXPECT_EQ(stats.total(), 0u);
  EXPECT_EQ(stats.count(MessageType::kQuery), 0u);
}

TEST(MessageStatsTest, RecordAccumulatesPerType) {
  MessageStats stats;
  stats.Record(MessageType::kExchange);
  stats.Record(MessageType::kExchange, 4);
  stats.Record(MessageType::kQuery, 2);
  EXPECT_EQ(stats.count(MessageType::kExchange), 5u);
  EXPECT_EQ(stats.count(MessageType::kQuery), 2u);
  EXPECT_EQ(stats.count(MessageType::kUpdate), 0u);
  EXPECT_EQ(stats.total(), 7u);
}

TEST(MessageStatsTest, ResetZeroesEverything) {
  MessageStats stats;
  stats.Record(MessageType::kUpdate, 3);
  stats.Record(MessageType::kDataTransfer, 9);
  stats.Reset();
  EXPECT_EQ(stats.total(), 0u);
}

TEST(MessageStatsTest, MergeFromAddsEveryType) {
  MessageStats total;
  total.Record(MessageType::kExchange, 5);
  MessageStats shard;
  shard.Record(MessageType::kExchange, 2);
  shard.Record(MessageType::kQuery, 7);
  shard.Record(MessageType::kDataTransfer, 11);
  total.MergeFrom(shard);
  EXPECT_EQ(total.count(MessageType::kExchange), 7u);
  EXPECT_EQ(total.count(MessageType::kQuery), 7u);
  EXPECT_EQ(total.count(MessageType::kDataTransfer), 11u);
  EXPECT_EQ(total.total(), 25u);
  // The shard is left untouched; the sharded-accounting drivers Reset() it
  // explicitly after each barrier merge.
  EXPECT_EQ(shard.total(), 20u);
}

TEST(MessageStatsTest, MergeOrderDoesNotMatterForTotals) {
  MessageStats a, b, ab, ba;
  a.Record(MessageType::kQuery, 3);
  b.Record(MessageType::kQuery, 4);
  b.Record(MessageType::kControl, 1);
  ab.MergeFrom(a);
  ab.MergeFrom(b);
  ba.MergeFrom(b);
  ba.MergeFrom(a);
  EXPECT_EQ(ab.count(MessageType::kQuery), ba.count(MessageType::kQuery));
  EXPECT_EQ(ab.total(), ba.total());
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
