#include "snapshot/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "check/invariants.h"
#include "core/search.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/key_generator.h"

namespace pgrid {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  auto built = testing_util::Build(128, 4, 3, 2, 1);
  Rng rng(2);
  KeyGenerator gen(KeyGenerator::Mode::kUniform, 8);
  std::vector<PeerId> holders;
  auto corpus = MakeCorpus(50, 128, gen, &rng, &holders);
  SeedGridPerfectly(built.grid.get(), corpus, holders);

  const std::string path = TempPath("roundtrip.pgrid");
  ASSERT_TRUE(SaveGrid(*built.grid, built.config, path).ok());
  auto loaded = LoadGrid(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  ASSERT_EQ(loaded->grid->size(), built.grid->size());
  EXPECT_EQ(loaded->config.maxl, built.config.maxl);
  EXPECT_EQ(loaded->config.refmax, built.config.refmax);
  EXPECT_EQ(loaded->config.recmax, built.config.recmax);
  EXPECT_DOUBLE_EQ(loaded->grid->AveragePathLength(),
                   built.grid->AveragePathLength());
  for (PeerId p = 0; p < built.grid->size(); ++p) {
    const PeerState& a = built.grid->peer(p);
    const PeerState& b = loaded->grid->peer(p);
    EXPECT_EQ(a.path(), b.path());
    for (size_t level = 1; level <= a.depth(); ++level) {
      EXPECT_EQ(a.RefsAt(level), b.RefsAt(level));
    }
    EXPECT_EQ(a.buddies(), b.buddies());
    EXPECT_EQ(a.index().size(), b.index().size());
    for (const IndexEntry& e : a.index().All()) {
      const IndexEntry* other = b.index().Find(e.holder, e.item_id);
      ASSERT_NE(other, nullptr);
      EXPECT_EQ(*other, e);
    }
    EXPECT_EQ(a.foreign_entries().size(), b.foreign_entries().size());
  }
  check::InvariantReport inv =
      check::GridInvariants::Check(*loaded->grid, loaded->config);
  EXPECT_TRUE(inv.ok()) << inv.ToString();
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadedGridAnswersQueries) {
  auto built = testing_util::Build(128, 4, 2, 2, 3);
  const std::string path = TempPath("queryable.pgrid");
  ASSERT_TRUE(SaveGrid(*built.grid, built.config, path).ok());
  auto loaded = LoadGrid(path);
  ASSERT_TRUE(loaded.ok());
  Rng rng(4);
  SearchEngine search(loaded->grid.get(), nullptr, &rng);
  for (int t = 0; t < 100; ++t) {
    QueryResult r = search.Query(static_cast<PeerId>(rng.UniformIndex(128)),
                                 KeyPath::Random(&rng, 4));
    EXPECT_TRUE(r.found);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadGrid("/nonexistent/dir/x.pgrid").status().code(),
            StatusCode::kNotFound);
}

TEST(SnapshotTest, GarbageFileIsRejected) {
  const std::string path = TempPath("garbage.pgrid");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a snapshot at all, definitely";
  }
  EXPECT_EQ(LoadGrid(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotTest, BitFlipFailsChecksum) {
  auto built = testing_util::Build(64, 3, 2, 2, 5);
  const std::string path = TempPath("corrupt.pgrid");
  ASSERT_TRUE(SaveGrid(*built.grid, built.config, path).ok());
  // Flip one byte in the middle.
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  }
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  Status s = LoadGrid(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedFileIsRejected) {
  auto built = testing_util::Build(64, 3, 2, 2, 7);
  const std::string path = TempPath("truncated.pgrid");
  ASSERT_TRUE(SaveGrid(*built.grid, built.config, path).ok());
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  EXPECT_FALSE(LoadGrid(path).ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, EmptyGridRoundTrips) {
  Grid grid(4);
  ExchangeConfig config;
  const std::string path = TempPath("empty.pgrid");
  ASSERT_TRUE(SaveGrid(grid, config, path).ok());
  auto loaded = LoadGrid(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->grid->size(), 4u);
  for (PeerId p = 0; p < 4; ++p) {
    EXPECT_TRUE(loaded->grid->peer(p).path().empty());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pgrid
