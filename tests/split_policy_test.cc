#include "core/split_policy.h"

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/key_generator.h"

namespace pgrid {
namespace {

IndexEntry Entry(ItemId id, const KeyPath& key) {
  IndexEntry e;
  e.holder = 0;
  e.item_id = id;
  e.key = key;
  e.version = 1;
  return e;
}

TEST(SplitPolicyTest, DepthBoundMatchesMaxlRule) {
  DepthBoundPolicy policy(4);
  PeerState a(0), b(1);
  EXPECT_TRUE(policy.MaySplit(a, b, 0));
  EXPECT_TRUE(policy.MaySplit(a, b, 3));
  EXPECT_FALSE(policy.MaySplit(a, b, 4));
  EXPECT_FALSE(policy.MaySplit(a, b, 9));
}

TEST(SplitPolicyTest, DataThresholdRequiresJointVolume) {
  DataThresholdPolicy policy(/*min_items=*/4, /*hard_cap=*/8, /*bootstrap_depth=*/0);
  PeerState a(0), b(1);
  EXPECT_FALSE(policy.MaySplit(a, b, 1));  // no data at all
  Rng rng(1);
  for (ItemId i = 1; i <= 2; ++i) a.index().InsertOrRefresh(Entry(i, KeyPath::Random(&rng, 8)));
  for (ItemId i = 3; i <= 4; ++i) b.index().InsertOrRefresh(Entry(i, KeyPath::Random(&rng, 8)));
  EXPECT_TRUE(policy.MaySplit(a, b, 1));   // 4 joint items
  EXPECT_FALSE(policy.MaySplit(a, b, 8));  // hard cap
}

TEST(SplitPolicyTest, BootstrapDepthAlwaysSplits) {
  DataThresholdPolicy policy(100, 8, /*bootstrap_depth=*/2);
  PeerState a(0), b(1);
  EXPECT_TRUE(policy.MaySplit(a, b, 0));
  EXPECT_TRUE(policy.MaySplit(a, b, 1));
  EXPECT_FALSE(policy.MaySplit(a, b, 2));  // past bootstrap, not enough data
}

// End-to-end: under skewed keys the adaptive policy grows deeper paths in dense
// regions than in sparse ones, while the plain policy splits uniformly.
TEST(SplitPolicyTest, AdaptiveGridFollowsDataDensity) {
  const size_t num_peers = 256;
  Grid grid(num_peers);
  Rng rng(7);
  ExchangeConfig config;
  config.maxl = 10;  // generous hard bound; the policy is the binding constraint
  config.refmax = 3;
  config.recmax = 2;
  config.recursion_fanout = 2;
  DataThresholdPolicy policy(/*min_items=*/8, /*hard_cap=*/10, /*bootstrap_depth=*/1);
  ExchangeEngine exchange(&grid, config, &rng, nullptr, &policy);

  // Heavily skewed corpus: 90% of keys start with "00".
  KeyGenerator gen(KeyGenerator::Mode::kBiasedBits, 12, /*bit_bias=*/0.1);
  std::vector<PeerId> holders;
  auto corpus = MakeCorpus(2000, num_peers, gen, &rng, &holders);
  SeedGridAtHolders(&grid, corpus, holders);

  MeetingScheduler scheduler(num_peers);
  for (int m = 0; m < 60000; ++m) {
    Meeting meeting = scheduler.Next(&rng);
    exchange.Exchange(meeting.a, meeting.b);
  }

  // Average depth of peers on the dense side ("0...") vs the sparse side ("1...").
  double dense_depth = 0, sparse_depth = 0;
  size_t dense_n = 0, sparse_n = 0;
  for (const PeerState& p : grid) {
    if (p.depth() == 0) continue;
    if (p.PathBit(1) == 0) {
      dense_depth += static_cast<double>(p.depth());
      ++dense_n;
    } else {
      sparse_depth += static_cast<double>(p.depth());
      ++sparse_n;
    }
  }
  ASSERT_GT(dense_n, 0u);
  ASSERT_GT(sparse_n, 0u);
  dense_depth /= static_cast<double>(dense_n);
  sparse_depth /= static_cast<double>(sparse_n);
  EXPECT_GT(dense_depth, sparse_depth + 0.5)
      << "dense " << dense_depth << " sparse " << sparse_depth;
  // Structure stays sound under the policy.
  check::InvariantReport report = check::GridInvariants::Check(grid, config);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(SplitPolicyTest, PreferCloneTracksObservedImbalance) {
  DataThresholdPolicy policy(1, 12, 0, /*clone_imbalance=*/3.0);
  PeerState shorter(0), longer(1);
  longer.AppendPathBit(1);  // partner sits on the "1" side of level 1
  // 10 entries on the partner's side, 1 on the complement: 10 > 3 * 1 -> clone.
  Rng rng(3);
  for (ItemId i = 1; i <= 10; ++i) {
    shorter.index().InsertOrRefresh(
        Entry(i, KeyPath::FromString("1").value().Concat(KeyPath::Random(&rng, 6))));
  }
  shorter.index().InsertOrRefresh(Entry(11, KeyPath::FromString("0110").value()));
  EXPECT_TRUE(policy.PreferClone(shorter, longer, 0));
  // Balanced data: no cloning.
  for (ItemId i = 12; i <= 20; ++i) {
    shorter.index().InsertOrRefresh(
        Entry(i, KeyPath::FromString("0").value().Concat(KeyPath::Random(&rng, 6))));
  }
  EXPECT_FALSE(policy.PreferClone(shorter, longer, 0));
  // Disabled cloning never fires.
  DataThresholdPolicy no_clone(1, 12, 0, 0.0);
  EXPECT_FALSE(no_clone.PreferClone(shorter, longer, 0));
}

TEST(SplitPolicyTest, CloningKeepsStructuralInvariants) {
  const size_t num_peers = 128;
  Grid grid(num_peers);
  Rng rng(17);
  ExchangeConfig config;
  config.maxl = 8;
  config.refmax = 3;
  config.recmax = 2;
  config.recursion_fanout = 2;
  DataThresholdPolicy policy(8, 8, 1, /*clone_imbalance=*/2.0);
  ExchangeEngine exchange(&grid, config, &rng, nullptr, &policy);
  KeyGenerator gen(KeyGenerator::Mode::kBiasedBits, 12, 0.2);
  std::vector<PeerId> holders;
  auto corpus = MakeCorpus(1000, num_peers, gen, &rng, &holders);
  SeedGridAtHolders(&grid, corpus, holders);
  MeetingScheduler scheduler(num_peers);
  for (int m = 0; m < 30000; ++m) {
    Meeting meeting = scheduler.Next(&rng);
    exchange.Exchange(meeting.a, meeting.b);
  }
  check::InvariantReport report = check::GridInvariants::Check(grid, config);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(SplitPolicyTest, NullPolicyReproducesPaperBehaviour) {
  // Engine with DepthBoundPolicy(maxl) must behave identically to no policy.
  auto run = [](bool use_policy) {
    Grid grid(64);
    Rng rng(11);
    ExchangeConfig config;
    config.maxl = 4;
    config.refmax = 2;
    config.recmax = 2;
    config.recursion_fanout = 2;
    DepthBoundPolicy policy(4);
    ExchangeEngine exchange(&grid, config, &rng, nullptr,
                            use_policy ? &policy : nullptr);
    MeetingScheduler scheduler(64);
    for (int m = 0; m < 3000; ++m) {
      Meeting meeting = scheduler.Next(&rng);
      exchange.Exchange(meeting.a, meeting.b);
    }
    std::vector<std::string> paths;
    for (const PeerState& p : grid) paths.push_back(p.path().ToString());
    return paths;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace pgrid
