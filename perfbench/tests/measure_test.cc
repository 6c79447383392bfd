// Tests of the benchmark's own helpers: the tail rule, nested self-time
// accounting in the timing decorator, /proc/self/io deltas, CPU-time clocks
// and the speed-probe scaling.

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "measure.h"
#include "net/inproc_transport.h"
#include "net/protocol.h"
#include "obs/trace.h"
#include "timing_transport.h"

namespace perfbench {
namespace {

TEST(TailRuleTest, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(999), 95.0);
  EXPECT_EQ(TailPercentile(200), 95.0);
  EXPECT_EQ(TailPercentile(199), 90.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(19), 0.0);
  EXPECT_EQ(TailPercentile(0), 0.0);
}

TEST(TailRuleTest, NearestRankPercentiles) {
  Samples s;
  for (int v = 100; v >= 1; --v) s.Add(v);
  EXPECT_EQ(s.Percentile(50), 50.0);
  EXPECT_EQ(s.Percentile(99), 99.0);
  EXPECT_EQ(s.Percentile(100), 100.0);
  EXPECT_EQ(Samples().Percentile(50), 0.0);
}

TEST(TailRuleTest, MissingTailFailsTheRun) {
  Samples few;
  for (int i = 0; i < 100; ++i) few.Add(i);
  Samples many;
  for (int i = 0; i < 2000; ++i) many.Add(i);
  EndToEnd e;
  e.search_us = &many;
  e.publish_us = &many;
  e.meet_us = &few;  // p95 needs 200 samples
  RunResult r;
  AddEndToEnd(e, &r);
  EXPECT_FALSE(r.correct);
  ASSERT_EQ(r.problems.size(), 1u);
  EXPECT_NE(r.problems[0].find("meet_p95_us"), std::string::npos);
  EXPECT_EQ(r.metrics.size(), 10u);
}

TEST(SelfTimerTest, ChildDurationsLeaveParentSelfTime) {
  SelfTimer t;
  t.Enter(100);                         // op
  t.Enter(110);                         //   call
  t.Enter(112);                         //     handler
  const SelfTimer::Closed h = t.Exit(150);
  const SelfTimer::Closed call = t.Exit(151);
  t.Exclude(4);                         // bookkeeping inside the op
  const SelfTimer::Closed op = t.Exit(170);
  EXPECT_EQ(h.dur_ns, 38u);
  EXPECT_EQ(h.self_ns, 38u);
  EXPECT_EQ(call.dur_ns, 41u);
  EXPECT_EQ(call.self_ns, 3u);
  EXPECT_EQ(op.dur_ns, 70u);
  EXPECT_EQ(op.self_ns, 70u - 41u - 4u);
  EXPECT_EQ(t.depth(), 0u);
}

uint64_t g_now = 0;
uint64_t FakeNow() { return g_now; }

// A handler that calls out: "a" (a query) does 10 ns of work, calls "b" (a
// publish, 30 ns of work), then does 5 ns more. The client op does 3 ns of its
// own around the call.
TEST(TimingTransportTest, HandlerSelfTimeExcludesNestedCalls) {
  pgrid::net::InProcTransport bus;
  pgrid::obs::TraceRecorder recorder;
  TimingTransport t(&bus, &recorder, FakeNow);
  const std::string to_a(1, static_cast<char>(pgrid::net::MsgType::kQueryReq));
  const std::string to_b(1, static_cast<char>(pgrid::net::MsgType::kPublishReq));
  ASSERT_TRUE(t.Serve("b", [](const std::string&, const std::string&) {
                 g_now += 30;
                 return std::string("bb");
               }).ok());
  ASSERT_TRUE(t.Serve("a", [&](const std::string&, const std::string&) {
                 g_now += 10;
                 EXPECT_TRUE(t.Call("b", "a", to_b).ok());
                 g_now += 5;
                 return std::string("aaa");
               }).ok());

  g_now = 1000;
  t.BeginOp(Op::kSearch);
  g_now += 2;
  ASSERT_TRUE(t.Call("a", "client", to_a).ok());
  g_now += 1;
  t.EndOp();

  EXPECT_EQ(t.handler(HandlerKind::kQuery).served, 1u);
  EXPECT_EQ(t.handler(HandlerKind::kQuery).self_ns, 15u);
  EXPECT_EQ(t.handler(HandlerKind::kPublish).self_ns, 30u);
  EXPECT_EQ(t.op(Op::kSearch).self_ns, 3u);
  EXPECT_EQ(t.transport_self_ns(), 0u);
  EXPECT_EQ(t.op(Op::kSearch).ops, 1u);
  EXPECT_EQ(t.op(Op::kSearch).calls, 2u);
  EXPECT_EQ(t.op(Op::kSearch).req_bytes, 2u);
  EXPECT_EQ(t.op(Op::kSearch).resp_bytes, 5u);

  // The spans form one tree: op -> call.query -> serve.query -> call.publish
  // -> serve.publish.
  const std::vector<pgrid::obs::TraceEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].name, "search");
  EXPECT_EQ(events[0].parent_span, 0u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].trace_id, events[0].trace_id);
    EXPECT_EQ(events[i].parent_span, events[i - 1].span_id);
  }
  EXPECT_EQ(events[4].name, "serve.publish");
}

TEST(TimingTransportTest, TrafficOutsideOpsIsNotAccounted) {
  pgrid::net::InProcTransport bus;
  TimingTransport t(&bus, nullptr, FakeNow);
  ASSERT_TRUE(t.Serve("a", [](const std::string&, const std::string&) {
                 g_now += 7;
                 return std::string("x");
               }).ok());
  ASSERT_TRUE(t.Call("a", "client", std::string(1, '\x03')).ok());
  EXPECT_EQ(t.handler(HandlerKind::kQuery).served, 0u);
  EXPECT_EQ(t.op(Op::kSearch).calls, 0u);
}

TEST(ProcIoTest, ParsesAndRejectsIncompleteText) {
  const std::string text =
      "rchar: 10\nwchar: 20\nsyscr: 3\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 0\n";
  pgrid::Result<ProcIo> io = ParseProcIo(text);
  ASSERT_TRUE(io.ok());
  EXPECT_EQ(io->wchar, 20u);
  EXPECT_EQ(io->syscw, 4u);
  EXPECT_FALSE(ParseProcIo("rchar: 10\nwchar: 20\n").ok());
}

TEST(ProcIoTest, DeltaCountsThisProcessWrites) {
  const int fd = ::open("/dev/null", O_WRONLY);
  ASSERT_GE(fd, 0);
  const std::string block(4096, 'x');
  const ProcIo before = ReadProcIo();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(::write(fd, block.data(), block.size()), 4096);
  }
  const ProcIo delta = IoDelta(before, ReadProcIo());
  ::close(fd);
  EXPECT_GE(delta.wchar, 3u * 4096u);
  EXPECT_GE(delta.syscw, 3u);
}

TEST(CpuClockTest, SleepingCostsNoCpuTime) {
  const uint64_t cpu = ThreadCpuNs();
  const uint64_t wall = NowNs();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GE(NowNs() - wall, 50'000'000u);
  EXPECT_LT(ThreadCpuNs() - cpu, 10'000'000u);

  const uint64_t busy = ThreadCpuNs();
  const uint64_t until = NowNs() + 20'000'000;
  uint64_t x = 1;
  while (NowNs() < until) x = x * 6364136223846793005ULL + 1;
  EXPECT_NE(x, 0u);
  EXPECT_GT(ThreadCpuNs() - busy, 5'000'000u);
  EXPECT_GE(ProcessCpuNs(), ThreadCpuNs() - busy);
}

TEST(SpeedProbeTest, RecordsEveryScale) {
  SpeedProbe probe;
  EXPECT_EQ(probe.Scale(), 1.0);
  probe.Run();
  probe.Run();
  ASSERT_EQ(probe.history().size(), 2u);
  EXPECT_EQ(probe.history().back(), probe.Scale());
  // A task of about 0.3 ms on any host this runs on.
  EXPECT_GT(probe.Scale(), 0.01);
  EXPECT_LT(probe.Scale(), 100.0);
}

uint64_t g_cpu = 0;
uint64_t FakeCpu() { return g_cpu; }

TEST(SpeedProbeTest, ClockScalesSegmentsByTheProbesAroundThem) {
  SpeedProbe probe;
  g_cpu = 1000;
  ScaledClock clock(&probe, FakeCpu);
  const double s0 = probe.Scale();
  g_cpu += 2'000'000'000;  // two seconds of work; the probe itself takes none
  const double lap = clock.Lap();
  const double s1 = probe.Scale();
  EXPECT_DOUBLE_EQ(lap, 2.0 * (s0 + s1) / 2);
  g_cpu += 500'000'000;
  const double lap2 = clock.Lap();
  EXPECT_DOUBLE_EQ(lap2, 0.5 * (s1 + probe.Scale()) / 2);
  EXPECT_DOUBLE_EQ(clock.total_s(), lap + lap2);
}

TEST(SpeedProbeTest, SamplesWaitForTheirWindowToClose) {
  SpeedProbe probe;
  ScaledSamples s(&probe, 2);
  const double before = probe.Scale();
  s.Add(0, 10.0);
  s.Add(1, 4.0);
  s.Add(1, 6.0);
  EXPECT_EQ(s.samples(1).size(), 0u);
  const double scale = s.CloseWindow();
  EXPECT_DOUBLE_EQ(scale, (before + probe.Scale()) / 2);
  ASSERT_EQ(s.samples(1).size(), 2u);
  EXPECT_DOUBLE_EQ(s.samples(0).Percentile(50), 10.0 * scale);
  EXPECT_DOUBLE_EQ(s.samples(1).Percentile(100), 6.0 * scale);
  EXPECT_EQ(s.CloseWindow() > 0.0, true);
  EXPECT_EQ(s.samples(1).size(), 2u);  // nothing new was pending
}

}  // namespace
}  // namespace perfbench
