#include "core/search.h"

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/stats.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/key_generator.h"

namespace pgrid {
namespace {

using testing_util::Key;

TEST(SearchStepTest, CoversEveryCaseOfTheFig2Step) {
  struct Case {
    const char* name;
    const char* path;
    size_t consumed;
    const char* key;
    bool responsible;
    bool key_exhausted;
    size_t next_consumed;
    const char* remaining;
  };
  const Case cases[] = {
      {"key exhausted", "0110", 1, "1", true, true, 2, ""},
      {"path exhausted", "01", 0, "0110", true, false, 2, ""},
      {"both exhausted", "01", 0, "01", true, true, 2, ""},
      {"empty key", "01", 1, "", true, true, 1, ""},
      {"divergence after consumed bits", "01101", 1, "1100", false, false, 4, "0"},
      {"divergence at the first bit", "0110", 2, "01", false, false, 2, "01"},
      // A QueryRequest off the wire may claim more bits than the path has.
      {"consumed beyond the path", "01", 5, "1", true, false, 5, ""},
  };
  for (const Case& c : cases) {
    const SearchStep step = StepSearch(Key(c.path), Key(c.key), c.consumed);
    EXPECT_EQ(step.responsible, c.responsible) << c.name;
    EXPECT_EQ(step.key_exhausted, c.key_exhausted) << c.name;
    EXPECT_EQ(step.consumed, c.next_consumed) << c.name;
    EXPECT_EQ(step.level(), c.next_consumed + 1) << c.name;
    EXPECT_EQ(step.remaining, Key(c.remaining)) << c.name;
  }
}

TEST(SearchStepTest, FullQueryPrependsTheConsumedBitsOfThePath) {
  EXPECT_EQ(FullQuery(Key("0110"), Key("01"), 2), Key("0101"));
  EXPECT_EQ(FullQuery(Key("0110"), Key("0110"), 0), Key("0110"));
  EXPECT_EQ(FullQuery(Key("01"), Key("1"), 5), Key("011"));
}

TEST(SearchTest, EmptyQueryAnswersAtStartPeer) {
  auto built = testing_util::Build(64, 3, 1, 2, 1);
  Rng rng(2);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  QueryResult r = search.Query(5, KeyPath());
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.responder, 5u);
  EXPECT_EQ(r.messages, 0u);
}

TEST(SearchTest, ResponderAlwaysCoversQuery) {
  auto built = testing_util::Build(128, 4, 2, 2, 3);
  Rng rng(4);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  for (int t = 0; t < 500; ++t) {
    KeyPath q = KeyPath::Random(&rng, 4);
    PeerId start = static_cast<PeerId>(rng.UniformIndex(built.grid->size()));
    QueryResult r = search.Query(start, q);
    ASSERT_TRUE(r.found);
    EXPECT_TRUE(PathsOverlap(built.grid->peer(r.responder).path(), q))
        << "path " << built.grid->peer(r.responder).path() << " query " << q;
  }
}

TEST(SearchTest, ExhaustiveAllKeysAllStartsFullyOnline) {
  // In a converged, fully online grid every key must be reachable from every peer.
  auto built = testing_util::Build(96, 4, 1, 2, 5);
  ASSERT_TRUE(built.report.converged);
  Rng rng(6);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  for (uint64_t key = 0; key < 16; ++key) {
    KeyPath q = KeyPath::FromUint64(key, 4);
    for (PeerId start = 0; start < built.grid->size(); ++start) {
      QueryResult r = search.Query(start, q);
      EXPECT_TRUE(r.found) << "key " << q << " from " << start;
    }
  }
}

TEST(SearchTest, MessagesBoundedByKeyLengthFullyOnline) {
  // With everyone online the DFS never backtracks: at most one message per level.
  auto built = testing_util::Build(128, 5, 2, 2, 7);
  Rng rng(8);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  for (int t = 0; t < 300; ++t) {
    KeyPath q = KeyPath::Random(&rng, 5);
    QueryResult r = search.Query(static_cast<PeerId>(rng.UniformIndex(128)), q);
    ASSERT_TRUE(r.found);
    EXPECT_LE(r.messages, 5u);
    EXPECT_LE(r.hops, 5u);
  }
}

TEST(SearchTest, QueryLongerThanPathsStillResolves) {
  auto built = testing_util::Build(64, 3, 1, 2, 9);
  Rng rng(10);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  KeyPath q = KeyPath::Random(&rng, 12);  // much longer than maxl = 3
  QueryResult r = search.Query(0, q);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(built.grid->peer(r.responder).path().IsPrefixOf(q));
}

TEST(SearchTest, FailsGracefullyWhenAllRefsOffline) {
  auto built = testing_util::Build(64, 3, 1, 2, 11);
  Rng rng(12);
  // Everyone offline: any query that needs routing fails; queries answered locally
  // still succeed.
  OnlineModel offline(OnlineMode::kSnapshot, 64, 0.0, &rng);
  SearchEngine search(built.grid.get(), &offline, &rng);
  size_t found = 0, total = 0;
  for (PeerId start = 0; start < 64; ++start) {
    for (uint64_t k = 0; k < 8; ++k) {
      KeyPath q = KeyPath::FromUint64(k, 3);
      QueryResult r = search.Query(start, q);
      ++total;
      if (r.found) {
        ++found;
        EXPECT_EQ(r.responder, start);  // only local answers possible
        EXPECT_EQ(r.messages, 0u);
      }
    }
  }
  EXPECT_LT(found, total);  // routing-dependent queries failed
  EXPECT_GT(found, 0u);     // locally-covered queries succeeded
}

TEST(SearchTest, HigherRefmaxImprovesSuccessUnderChurn) {
  // The core redundancy claim (eq. 3): more references per level -> higher search
  // success probability at fixed online rate.
  auto run = [](size_t refmax, uint64_t seed) {
    auto built = testing_util::Build(256, 4, refmax, 2, seed);
    Rng rng(seed + 1);
    OnlineModel online(OnlineMode::kSnapshot, 256, 0.3, &rng);
    SearchEngine search(built.grid.get(), &online, &rng);
    size_t ok = 0;
    const int trials = 600;
    for (int t = 0; t < trials; ++t) {
      if (t % 50 == 0) online.Resample(&rng);
      auto start = search.RandomOnlinePeer();
      if (!start.has_value()) continue;
      KeyPath q = KeyPath::Random(&rng, 4);
      if (search.Query(*start, q).found) ++ok;
    }
    return static_cast<double>(ok) / trials;
  };
  double weak = run(1, 100);
  double strong = run(6, 100);
  EXPECT_GT(strong, weak);
  // The eq. (3) worst case for refmax = 6, p = 0.3, k = 4 is ~0.61; the measured
  // rate is well above it because most queries don't need a fresh hop per level.
  EXPECT_GT(strong, 0.8);
}

TEST(SearchTest, SuccessRateTracksAnalyticalPrediction) {
  // Empirical success under snapshot churn should be at least the eq. (3) bound
  // (the bound assumes a fresh peer needed at every level -- the worst case).
  const size_t refmax = 4, maxl = 4;
  auto built = testing_util::Build(256, maxl, refmax, 2, 13);
  Rng rng(14);
  OnlineModel online(OnlineMode::kSnapshot, 256, 0.3, &rng);
  SearchEngine search(built.grid.get(), &online, &rng);
  size_t ok = 0, trials = 0;
  for (int t = 0; t < 1500; ++t) {
    if (t % 30 == 0) online.Resample(&rng);
    auto start = search.RandomOnlinePeer();
    if (!start.has_value()) continue;
    ++trials;
    if (search.Query(*start, KeyPath::Random(&rng, maxl)).found) ++ok;
  }
  const double predicted = SearchSuccessProbability(0.3, refmax, maxl);
  const double measured = static_cast<double>(ok) / static_cast<double>(trials);
  EXPECT_GE(measured, predicted - 0.05);
}

TEST(SearchTest, RandomOnlinePeerRespectsModel) {
  auto built = testing_util::Build(64, 3, 1, 2, 15);
  Rng rng(16);
  OnlineModel online(OnlineMode::kSnapshot, 64, 0.2, &rng);
  SearchEngine search(built.grid.get(), &online, &rng);
  for (int t = 0; t < 100; ++t) {
    auto p = search.RandomOnlinePeer();
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(online.IsOnline(*p, &rng));
  }
  OnlineModel dead(OnlineMode::kSnapshot, 64, 0.0, &rng);
  SearchEngine dead_search(built.grid.get(), &dead, &rng);
  EXPECT_FALSE(dead_search.RandomOnlinePeer(32).has_value());
}

TEST(SearchTest, ReadVersionReachesQuorumOnConsistentData) {
  auto built = testing_util::Build(128, 4, 2, 2, 17);
  Rng rng(18);
  KeyGenerator gen(KeyGenerator::Mode::kUniform, 8);
  std::vector<PeerId> holders;
  auto corpus = MakeCorpus(20, 128, gen, &rng, &holders);
  SeedGridPerfectly(built.grid.get(), corpus, holders);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  ReliableReadConfig cfg;
  cfg.quorum = 3;
  for (const DataItem& item : corpus) {
    ReliableReadResult r = search.ReadVersion(item.key, item.id, cfg);
    EXPECT_TRUE(r.decided);
    EXPECT_EQ(r.version, 1u);
    EXPECT_GE(r.attempts, cfg.quorum);
  }
}

TEST(SearchTest, ReadVersionSeesNewVersionAfterFullPropagation) {
  auto built = testing_util::Build(128, 4, 2, 2, 19);
  Rng rng(20);
  KeyGenerator gen(KeyGenerator::Mode::kUniform, 8);
  std::vector<PeerId> holders;
  auto corpus = MakeCorpus(5, 128, gen, &rng, &holders);
  SeedGridPerfectly(built.grid.get(), corpus, holders);
  // Manually bump every replica: full propagation.
  const DataItem& item = corpus[0];
  for (PeerState& p : *built.grid) p.index().ApplyVersion(item.id, 2);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  ReliableReadConfig cfg;
  ReliableReadResult r = search.ReadVersion(item.key, item.id, cfg);
  EXPECT_TRUE(r.decided);
  EXPECT_EQ(r.version, 2u);
}

TEST(SearchTest, MetricsLedgerAgreesWithMessageStats) {
  // The acceptance contract of the observability layer: the registry counter
  // "search.messages", read through the paper's MessageStats view, counts
  // exactly the messages the queries report spending.
  auto built = testing_util::Build(96, 4, 2, 2, 21);
  Rng rng(22);
  OnlineModel online(OnlineMode::kSnapshot, built.grid->size(), 0.5, &rng);
  SearchEngine search(built.grid.get(), &online, &rng);
  const uint64_t queries_before = built.grid->stats().count(MessageType::kQuery);
  ASSERT_EQ(queries_before, 0u);

  size_t found = 0;
  uint64_t reported = 0;
  for (int t = 0; t < 200; ++t) {
    if (t % 50 == 0) online.Resample(&rng);
    auto start = search.RandomOnlinePeer();
    if (!start.has_value()) continue;
    QueryResult r = search.Query(*start, KeyPath::Random(&rng, 4));
    if (r.found) ++found;
    reported += r.messages;
  }
  ASSERT_GT(found, 0u);

  const obs::RegistrySnapshot snap = built.grid->metrics().Snapshot();
  uint64_t messages = 0, queries = 0, failures = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "search.messages") messages = value;
    if (name == "search.queries") queries = value;
    if (name == "search.failures") failures = value;
  }
  EXPECT_EQ(messages, built.grid->stats().count(MessageType::kQuery));
  EXPECT_EQ(messages, reported);
  EXPECT_GT(messages, 0u);
  EXPECT_EQ(queries, 200u);
  EXPECT_EQ(found, queries - failures);

  // The hop histogram saw exactly the successful queries.
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name == "search.hops") {
      EXPECT_EQ(h.count, found);
    }
  }
}

TEST(SearchTest, TraceRecorderCapturesQuerySpans) {
  auto built = testing_util::Build(64, 4, 2, 2, 23);
  Rng rng(24);
  obs::TraceRecorder trace;
  built.grid->SetTraceRecorder(&trace);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  QueryResult r = search.Query(0, KeyPath::Random(&rng, 4));
  ASSERT_TRUE(r.found);

  std::vector<obs::TraceEvent> events = trace.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].name, "search.query");
  EXPECT_GT(events[0].dur_ns, 0u);
  // Every hop event belongs to the query's span.
  size_t hops = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "search.hop") {
      EXPECT_EQ(e.trace_id, events[0].trace_id);
      ++hops;
    }
  }
  EXPECT_EQ(hops, r.hops);
}

}  // namespace
}  // namespace pgrid
