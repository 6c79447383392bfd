// Measurement helpers of the benchmark: latency samples and the tail rule,
// CPU-time clocks and the host speed probe, process counters from /proc, and
// the printed result.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace perfbench {

/// Steady-clock nanoseconds (arbitrary epoch).
uint64_t NowNs();

/// CPU time of the calling thread in nanoseconds. Time the hypervisor stole
/// and time spent waiting for a core are not counted, so a cost timed with it
/// leaves out the time other tenants or threads held the core. One reading
/// costs about 0.3 us (a system call).
uint64_t ThreadCpuNs();

/// CPU time of the whole process (every thread) in nanoseconds.
uint64_t ProcessCpuNs();

/// One kind of timed sample (op latencies in microseconds, say).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }

  /// Nearest-rank percentile, p in (0, 100]; 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<double> values_;
};

/// How fast the host runs right now. A shared host changes speed by 10-40%
/// for seconds at a time (other tenants on the same cores, caches and
/// memory), and CPU time does not hide that. Run() times a fixed task that
/// calls nothing of the program under test -- integer hashing and
/// short-string hash-map inserts, so mostly the allocator and the first two
/// cache levels -- and Scale() is its nominal CPU time over the measured one.
/// A CPU time measured next to Run() times Scale() is the time the same work
/// takes at the nominal speed.
class SpeedProbe {
 public:
  /// Times the task three times (about 0.3 ms each) and keeps the fastest.
  void Run();

  /// kNominalNs / the last Run()'s task time; 1 before the first Run().
  double Scale() const { return scale_; }

  /// Every scale Run() produced, in order.
  const std::vector<double>& history() const { return history_; }

  /// The task's CPU time at the nominal speed: about its median on an
  /// otherwise idle 2.1 GHz Xeon VM.
  static constexpr double kNominalNs = 3.0e5;

 private:
  uint64_t TaskNs();

  uint64_t sink_ = 0;  ///< keeps the task's results alive
  double scale_ = 1.0;
  std::vector<double> history_;
};

/// Scaled CPU time over consecutive segments: each segment's CPU time is
/// multiplied by the mean of the probe readings just before and just after
/// it. The probe's own time is outside every segment.
class ScaledClock {
 public:
  using ClockFn = uint64_t (*)();

  /// Runs the probe and starts the first segment.
  explicit ScaledClock(SpeedProbe* probe, ClockFn clock = ProcessCpuNs);

  /// Ends the current segment (running the probe) and starts the next one;
  /// returns the ended segment's scaled seconds.
  double Lap();

  /// Scaled seconds of every segment ended so far.
  double total_s() const { return total_s_; }

 private:
  SpeedProbe* probe_;
  ClockFn clock_;
  uint64_t start_ns_ = 0;
  double total_s_ = 0.0;
};

/// Per-op CPU times of several kinds (search, publish, ...). They are held
/// for one window of the measured loop and added to the run's samples when the
/// window closes, scaled like a ScaledClock segment.
class ScaledSamples {
 public:
  /// Runs the probe, which opens the first window.
  ScaledSamples(SpeedProbe* probe, size_t kinds);

  void Add(size_t kind, double cpu_us) { pending_[kind].push_back(cpu_us); }

  /// Runs the probe and moves the pending samples into samples(); returns the
  /// window's scale.
  double CloseWindow();

  const Samples& samples(size_t kind) const { return samples_[kind]; }

 private:
  SpeedProbe* probe_;
  std::vector<std::vector<double>> pending_;
  std::vector<Samples> samples_;
};

/// "median[min..max]" of the probe's scales, for the run's description line.
std::string ProbeSummary(const SpeedProbe& probe);

/// Median of `v` (upper median for even sizes); 0 when empty.
double Median(std::vector<double> v);

/// Tracing overhead in percent: the traced pass's CPU time against the mean
/// of the untraced passes before and after it (same seeded stream and length).
double OverheadPct(double traced_s, double before_s, double after_s);

/// The tail rule: the highest of p50, p90, p95, p99 and p99.9 that leaves at
/// least `beyond` of `n` samples above it, or 0 when even p50 does not.
double TailPercentile(size_t n, size_t beyond = 10);

/// Write counters of /proc/<pid>/io: bytes passed to write calls, and calls.
struct ProcIo {
  uint64_t wchar = 0;
  uint64_t syscw = 0;
};

/// Parses the text of /proc/<pid>/io; InvalidArgument if a field is missing.
pgrid::Result<ProcIo> ParseProcIo(const std::string& text);

/// This process's counters; all zero where /proc/self/io is unreadable.
ProcIo ReadProcIo();

/// Field-wise `after - before`.
ProcIo IoDelta(const ProcIo& before, const ProcIo& after);

/// Jiffies of the aggregate "cpu" line of /proc/stat.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// Share of CPU time stolen by the hypervisor between two readings, in [0, 1].
double StealShare(const CpuTimes& before, const CpuTimes& after);

/// Peak resident set size of this process (VmHWM) in MB; 0 if unknown.
double PeakRssMb();

/// Name of the filesystem holding `path` ("tmpfs", "ext4", ...).
std::string FsType(const std::string& path);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of a workload prints.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Facts about the host and the run that explain an outlier ("key=value").
  std::vector<std::string> env;
  /// Why `correct` is false, one line each.
  std::vector<std::string> problems;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// The end-to-end metrics every workload reports, under the same names. Every
/// time in them is CPU time (see ThreadCpuNs).
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double build_meetings_per_s = 0.0;
  double ops_per_s = 0.0;
  const Samples* search_us = nullptr;
  const Samples* publish_us = nullptr;
  const Samples* meet_us = nullptr;
};

/// Adds the end-to-end metrics to `r`. A tail without 10 samples beyond it
/// fails the run.
void AddEndToEnd(const EndToEnd& e, RunResult* r);

/// Names and units of the per-layer metrics, in report order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& PerLayerMetrics();

/// Orders `r`'s metrics as PerLayerMetrics() and reports 0 for the layers the
/// workload does not exercise. Fails the run on a name outside the list.
void CompletePerLayer(RunResult* r);

/// Writes chrome://tracing JSON to `<dir>/trace-<workload>.json`; returns the
/// path, or "" on failure.
std::string WriteTrace(const std::string& dir, const std::string& workload,
                       const std::string& chrome_json);

/// The result line: {"correct", "attempted", "failed", "metrics"} with every
/// value printed to full precision.
std::string ResultJson(const RunResult& r);

}  // namespace perfbench
