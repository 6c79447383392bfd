#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/fuzzer.h"
#include "sim/scenario.h"

namespace pgrid {
namespace cli {
namespace {

struct CliResult {
  int exit_code;
  std::string out;
  std::string err;
};

CliResult RunArgs(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  int code = RunCli(args, out, err);
  return CliResult{code, out.str(), err.str()};
}

std::string TempSnapshot(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(CliTest, NoArgsPrintsUsageAndFails) {
  CliResult r = RunArgs({});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("commands:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  CliResult r = RunArgs({"help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("bench-search"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  CliResult r = RunArgs({"frobnicate"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, BuildRequiresFlags) {
  CliResult r = RunArgs({"build"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--peers"), std::string::npos);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, BuildRejectsBadNumbers) {
  CliResult r = RunArgs({"build", "--peers=abc", "--out=/tmp/x"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("integer"), std::string::npos);
}

TEST(CliTest, FullWorkflowBuildInfoVerifySearchBench) {
  const std::string file = TempSnapshot("cli_workflow.pgrid");
  CliResult build = RunArgs({"build", "--peers=128", "--maxl=4", "--refmax=3",
                         "--out=" + file, "--seed=7"});
  ASSERT_EQ(build.exit_code, 0) << build.err;
  EXPECT_NE(build.out.find("snapshot written"), std::string::npos);

  CliResult info = RunArgs({"info", "--in=" + file});
  ASSERT_EQ(info.exit_code, 0) << info.err;
  EXPECT_NE(info.out.find("peers: 128"), std::string::npos);
  EXPECT_NE(info.out.find("maxl=4"), std::string::npos);
  EXPECT_NE(info.out.find("path length histogram"), std::string::npos);

  CliResult verify = RunArgs({"verify", "--in=" + file});
  ASSERT_EQ(verify.exit_code, 0) << verify.err;
  EXPECT_NE(verify.out.find("OK"), std::string::npos);

  CliResult search = RunArgs({"search", "--in=" + file, "--key=0110", "--seed=3"});
  ASSERT_EQ(search.exit_code, 0) << search.err;
  EXPECT_NE(search.out.find("found: peer"), std::string::npos);

  CliResult bench =
      RunArgs({"bench-search", "--in=" + file, "--queries=200", "--online=0.5"});
  ASSERT_EQ(bench.exit_code, 0) << bench.err;
  EXPECT_NE(bench.out.find("success rate"), std::string::npos);

  CliResult prefix = RunArgs({"prefix", "--in=" + file, "--key=01"});
  ASSERT_EQ(prefix.exit_code, 0) << prefix.err;
  EXPECT_NE(prefix.out.find("responders"), std::string::npos);

  std::remove(file.c_str());
}

TEST(CliTest, SearchOnMissingSnapshotFails) {
  CliResult r = RunArgs({"search", "--in=/nonexistent.pgrid", "--key=01"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("NotFound"), std::string::npos);
}

TEST(CliTest, SearchRejectsBadKey) {
  const std::string file = TempSnapshot("cli_badkey.pgrid");
  ASSERT_EQ(RunArgs({"build", "--peers=32", "--maxl=3", "--out=" + file}).exit_code, 0);
  CliResult r = RunArgs({"search", "--in=" + file, "--key=01x"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("invalid bit"), std::string::npos);
  std::remove(file.c_str());
}

TEST(CliTest, SearchRequiresKeyOrText) {
  const std::string file = TempSnapshot("cli_nokey.pgrid");
  ASSERT_EQ(RunArgs({"build", "--peers=32", "--maxl=3", "--out=" + file}).exit_code, 0);
  CliResult r = RunArgs({"search", "--in=" + file});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--key"), std::string::npos);
  std::remove(file.c_str());
}

TEST(CliTest, PrefixAcceptsTextKeys) {
  const std::string file = TempSnapshot("cli_text.pgrid");
  ASSERT_EQ(
      RunArgs({"build", "--peers=64", "--maxl=4", "--out=" + file}).exit_code, 0);
  CliResult r = RunArgs({"prefix", "--in=" + file, "--text=ab"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  std::remove(file.c_str());
}

TEST(CliTest, RangeCommand) {
  const std::string file = TempSnapshot("cli_range.pgrid");
  ASSERT_EQ(RunArgs({"build", "--peers=64", "--maxl=4", "--out=" + file}).exit_code,
            0);
  CliResult ok = RunArgs({"range", "--in=" + file, "--lo=0010", "--hi=0110"});
  EXPECT_EQ(ok.exit_code, 0) << ok.err;
  EXPECT_NE(ok.out.find("responders"), std::string::npos);
  CliResult bad = RunArgs({"range", "--in=" + file, "--lo=11", "--hi=00"});
  EXPECT_EQ(bad.exit_code, 1);
  CliResult missing = RunArgs({"range", "--in=" + file, "--lo=11"});
  EXPECT_EQ(missing.exit_code, 1);
  EXPECT_NE(missing.err.find("--hi"), std::string::npos);
  std::remove(file.c_str());
}

TEST(CliTest, StartOutOfRangeFails) {
  const std::string file = TempSnapshot("cli_start.pgrid");
  ASSERT_EQ(RunArgs({"build", "--peers=32", "--maxl=3", "--out=" + file}).exit_code, 0);
  CliResult r = RunArgs({"search", "--in=" + file, "--key=01", "--start=999"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("out of range"), std::string::npos);
  std::remove(file.c_str());
}

TEST(CliTest, MetricsJsonFlagDumpsRegistry) {
  const std::string file = TempSnapshot("cli_metrics.pgrid");
  const std::string metrics = TempSnapshot("cli_metrics.json");
  ASSERT_EQ(RunArgs({"build", "--peers=64", "--maxl=4", "--out=" + file}).exit_code,
            0);

  CliResult r = RunArgs({"bench-search", "--in=" + file, "--queries=100",
                         "--online=0.5", "--metrics-json=" + metrics});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("metrics written to"), std::string::npos);

  std::ifstream in(metrics);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  // The run's counters are present and the document has the exporter's shape.
  EXPECT_EQ(json.rfind("{\n", 0), 0u);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"search.messages\""), std::string::npos);
  EXPECT_NE(json.find("\"search.queries\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"search.hops\""), std::string::npos);

  std::remove(file.c_str());
  std::remove(metrics.c_str());
}

TEST(CliTest, MetricsJsonToUnwritablePathFails) {
  const std::string file = TempSnapshot("cli_metrics_bad.pgrid");
  ASSERT_EQ(RunArgs({"build", "--peers=32", "--maxl=3", "--out=" + file}).exit_code,
            0);
  CliResult r = RunArgs({"search", "--in=" + file, "--key=01",
                         "--metrics-json=/nonexistent-dir/metrics.json"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
  std::remove(file.c_str());
}

TEST(CliTest, FuzzCleanSweepSucceeds) {
  CliResult r = RunArgs({"fuzz", "--seeds=3", "--base-seed=1", "--max-steps=15"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("3 seed(s) run, 0 failure(s)"), std::string::npos);
  // The sweep modes tools/check.sh runs under the sanitizers.
  for (const char* mode :
       {"--crash-sweep", "--macro-sweep", "--heal-tail", "--thread-sweep"}) {
    SCOPED_TRACE(mode);
    r = RunArgs({"fuzz", "--seeds=2", "--max-steps=15", mode, "--keep-going"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("2 seed(s) run, 0 failure(s)"), std::string::npos);
  }
}

TEST(CliTest, FuzzRejectsMisspelledFlags) {
  CliResult r = RunArgs({"fuzz", "--seeds=2", "--crash_sweep", "--keepgoing"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown flag(s) --crash_sweep --keepgoing"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("usage: pgrid fuzz"), std::string::npos);
  EXPECT_EQ(r.out.find("seed(s) run"), std::string::npos);
}

TEST(CliTest, BuildRejectsMisspelledThreshold) {
  const std::string file = TempSnapshot("cli_treshold.pgrid");
  std::remove(file.c_str());
  CliResult r = RunArgs(
      {"build", "--peers=50", "--maxl=4", "--treshold=0.5", "--out=" + file});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown flag(s) --treshold"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("usage: pgrid build"), std::string::npos);
  EXPECT_FALSE(std::ifstream(file).good());
}

TEST(CliTest, NodeDaemonRejectsMisspelledStorageDir) {
  const std::string log = TempSnapshot("cli_node_flags.log");
  const std::string command = std::string(PGRID_NODE_BIN) +
                              " --listen=127.0.0.1:0 --rounds=1 --storage_dir=" +
                              TempSnapshot("cli_node_store") + " >" + log + " 2>&1";
  EXPECT_NE(std::system(command.c_str()), 0);
  std::ifstream in(log);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("unknown flag(s) --storage_dir"), std::string::npos)
      << buf.str();
  EXPECT_NE(buf.str().find("usage: pgrid_node"), std::string::npos);
  EXPECT_EQ(buf.str().find("serving"), std::string::npos);
  std::remove(log.c_str());
}

TEST(CliTest, FuzzRejectsBadBounds) {
  CliResult r = RunArgs({"fuzz", "--min-steps=20", "--max-steps=5"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, ReplayCleanScenarioSucceedsAndIsDeterministic) {
  const std::string file = TempSnapshot("cli_replay.pgs");
  sim::Scenario s = sim::ScenarioFuzzer::Generate(11);
  ASSERT_TRUE(sim::SaveScenario(s, file).ok());

  CliResult a = RunArgs({"replay", file});       // positional form
  ASSERT_EQ(a.exit_code, 0) << a.err;
  EXPECT_NE(a.out.find("OK: all barriers passed"), std::string::npos);
  CliResult b = RunArgs({"replay", "--in=" + file});  // flag form
  ASSERT_EQ(b.exit_code, 0) << b.err;
  EXPECT_EQ(a.out, b.out);  // same seed -> same digest line, byte for byte

  std::remove(file.c_str());
}

TEST(CliTest, ReplayReportsViolationsWithNonzeroExit) {
  const std::string file = TempSnapshot("cli_replay_bad.pgs");
  sim::Scenario s = sim::ScenarioFuzzer::Generate(11);
  s.steps.push_back({sim::StepKind::kCorrupt, 0, 0, 0, 0});  // self-reference
  ASSERT_TRUE(sim::SaveScenario(s, file).ok());

  CliResult r = RunArgs({"replay", file});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("FAILED at step"), std::string::npos);
  EXPECT_NE(r.out.find("self-reference"), std::string::npos);
  std::remove(file.c_str());
}

TEST(CliTest, ReplayWithoutFileFails) {
  CliResult r = RunArgs({"replay"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("scenario file"), std::string::npos);
}

TEST(CliTest, VerifyPrintsCategorizedReportOnCorruptSnapshot) {
  // Round-trip a fuzzed grid through a snapshot, then corrupt one peer's refs
  // in-memory is not possible via CLI -- instead verify the report shape on a
  // clean snapshot and rely on invariants_test for negative coverage.
  const std::string file = TempSnapshot("cli_verify2.pgrid");
  ASSERT_EQ(
      RunArgs({"build", "--peers=64", "--maxl=4", "--out=" + file}).exit_code, 0);
  CliResult r = RunArgs({"verify", "--in=" + file});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("all invariants hold"), std::string::npos);
  std::remove(file.c_str());
}

TEST(CliTest, TraceRendersSpanTreeAndCriticalPath) {
  const std::string file = TempSnapshot("cli_trace.json");
  CliResult r = RunArgs({"trace", "--peers=8", "--maxl=3", "--seed=7",
                         "--trace-json=" + file});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  // The command publishes then searches over a traced in-process cluster and
  // renders every trace as a span tree plus the search's critical path.
  EXPECT_NE(r.out.find("cluster: 8 peers"), std::string::npos);
  EXPECT_NE(r.out.find("trace "), std::string::npos);
  EXPECT_NE(r.out.find("node.publish"), std::string::npos);
  EXPECT_NE(r.out.find("node.route"), std::string::npos);
  EXPECT_NE(r.out.find("critical path:"), std::string::npos);
  // --trace-json dumps the same events in chrome://tracing format.
  std::ifstream in(file);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buf.str().find("node.route"), std::string::npos);
  std::remove(file.c_str());
}

TEST(CliTest, TraceRejectsBadFlags) {
  EXPECT_EQ(RunArgs({"trace", "--peers=1"}).exit_code, 1);
  EXPECT_EQ(RunArgs({"trace", "--maxl=0"}).exit_code, 1);
}

}  // namespace
}  // namespace cli
}  // namespace pgrid
