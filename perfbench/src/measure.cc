#include "measure.h"

#include <sys/statfs.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "obs/export.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

namespace {

uint64_t ClockNs(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<uint64_t>(t.tv_sec) * 1'000'000'000ULL + static_cast<uint64_t>(t.tv_nsec);
}

}  // namespace

uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

constexpr int kProbeHashSteps = 30000;
constexpr int kProbeMapInserts = 1500;

}  // namespace

uint64_t SpeedProbe::TaskNs() {
  const uint64_t t0 = ThreadCpuNs();
  uint64_t h = sink_ | 1;
  for (int i = 0; i < kProbeHashSteps; ++i) h = (h ^ (h >> 29)) * 0xBF58476D1CE4E5B9ULL;
  std::unordered_map<std::string, uint64_t> m;
  for (int i = 0; i < kProbeMapInserts; ++i) {
    m.emplace("probe-key-" + std::to_string(h + static_cast<uint64_t>(i)), h);
  }
  sink_ += h + m.size();
  return ThreadCpuNs() - t0;
}

void SpeedProbe::Run() {
  uint64_t best = TaskNs();
  for (int i = 0; i < 2; ++i) best = std::min(best, TaskNs());
  scale_ = kNominalNs / static_cast<double>(std::max<uint64_t>(best, 1));
  history_.push_back(scale_);
}

ScaledClock::ScaledClock(SpeedProbe* probe, ClockFn clock) : probe_(probe), clock_(clock) {
  probe_->Run();
  start_ns_ = clock_();
}

double ScaledClock::Lap() {
  const uint64_t ns = clock_() - start_ns_;
  const double before = probe_->Scale();
  probe_->Run();
  const double s = static_cast<double>(ns) / 1e9 * (before + probe_->Scale()) / 2;
  total_s_ += s;
  start_ns_ = clock_();
  return s;
}

ScaledSamples::ScaledSamples(SpeedProbe* probe, size_t kinds)
    : probe_(probe), pending_(kinds), samples_(kinds) {
  probe_->Run();
}

double ScaledSamples::CloseWindow() {
  const double before = probe_->Scale();
  probe_->Run();
  const double scale = (before + probe_->Scale()) / 2;
  for (size_t k = 0; k < pending_.size(); ++k) {
    for (double v : pending_[k]) samples_[k].Add(v * scale);
    pending_[k].clear();
  }
  return scale;
}

namespace {

/// 1-based nearest rank of percentile p among n samples. The epsilon keeps
/// 0.99 * 1000 from rounding up to 991.
size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, std::max<size_t>(n, 1));
}

}  // namespace

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const size_t idx = NearestRank(p, sorted.size()) - 1;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(idx), sorted.end());
  return sorted[idx];
}

std::string ProbeSummary(const SpeedProbe& probe) {
  const std::vector<double>& h = probe.history();
  if (h.empty()) return "none";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f[%.3f..%.3f]", Median(h),
                *std::min_element(h.begin(), h.end()), *std::max_element(h.begin(), h.end()));
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<long>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

double OverheadPct(double traced_s, double before_s, double after_s) {
  return 100.0 * (2.0 * traced_s / (before_s + after_s) - 1.0);
}

double TailPercentile(size_t n, size_t beyond) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    // Samples strictly above the nearest-rank p-th value.
    if (n > 0 && n - NearestRank(p, n) >= beyond) best = p;
  }
  return best;
}

pgrid::Result<ProcIo> ParseProcIo(const std::string& text) {
  ProcIo io;
  bool have_wchar = false, have_syscw = false;
  std::istringstream in(text);
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") {
      io.wchar = value;
      have_wchar = true;
    } else if (key == "syscw:") {
      io.syscw = value;
      have_syscw = true;
    }
  }
  if (!have_wchar || !have_syscw) {
    return pgrid::Status::InvalidArgument("no wchar/syscw in /proc io text");
  }
  return io;
}

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

ProcIo ReadProcIo() {
  pgrid::Result<ProcIo> io = ParseProcIo(ReadFile("/proc/self/io"));
  return io.ok() ? *io : ProcIo{};
}

ProcIo IoDelta(const ProcIo& before, const ProcIo& after) {
  return ProcIo{after.wchar - before.wchar, after.syscw - before.syscw};
}

CpuTimes ReadCpuTimes() {
  std::istringstream in(ReadFile("/proc/stat"));
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already counted in user and nice.
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

double PeakRssMb() {
  std::istringstream in(ReadFile("/proc/self/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string FsType(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

namespace {

void AddPercentile(const char* name, const Samples* s, double p, RunResult* r) {
  if (s == nullptr || TailPercentile(s->size()) < p) {
    r->Fail(std::string(name) + ": fewer than 10 samples beyond the percentile");
  }
  r->Add(name, s == nullptr ? 0.0 : s->Percentile(p), "us");
}

}  // namespace

void AddEndToEnd(const EndToEnd& e, RunResult* r) {
  r->Add("setup_s", e.setup_s, "s");
  r->Add("peak_rss_mb", e.peak_rss_mb, "MB");
  r->Add("build_meetings_per_s", e.build_meetings_per_s, "meetings/s");
  r->Add("ops_per_s", e.ops_per_s, "ops/s");
  AddPercentile("search_p50_us", e.search_us, 50, r);
  AddPercentile("search_p99_us", e.search_us, 99, r);
  AddPercentile("publish_p50_us", e.publish_us, 50, r);
  AddPercentile("publish_p99_us", e.publish_us, 99, r);
  AddPercentile("meet_p50_us", e.meet_us, 50, r);
  AddPercentile("meet_p95_us", e.meet_us, 95, r);
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"sim.schedule_us_per_batch", "us"},
      {"core.color_us_per_batch", "us"},
      {"core.exchange_us_per_meeting", "us"},
      {"core.gather_us_per_batch", "us"},
      {"core.waves_per_batch", "count"},
      {"core.exchanges_per_meeting", "count"},
      {"storage.entries_moved_per_meeting", "count"},
      {"core.search_msgs_per_query", "count"},
      {"core.update_msgs_per_update", "count"},
      {"core.update_replicas_per_update", "count"},
      {"storage.index_entries_per_peer", "count"},
      {"core.grid_bytes_per_peer", "B"},
      {"net.calls_per_search", "count"},
      {"net.calls_per_publish", "count"},
      {"net.calls_per_meet", "count"},
      {"net.req_bytes_per_op", "B"},
      {"net.resp_bytes_per_op", "B"},
      {"net.codec_ns_per_byte", "ns/B"},
      {"net.serve_self_us.query", "us"},
      {"net.serve_self_us.publish", "us"},
      {"net.serve_self_us.exchange", "us"},
      {"net.serve_self_us.commit", "us"},
      {"net.serve_self_us.entry_push", "us"},
      {"net.serve_self_share.query", "%"},
      {"net.serve_self_share.publish", "%"},
      {"net.serve_self_share.exchange", "%"},
      {"net.serve_self_share.commit", "%"},
      {"net.serve_self_share.entry_push", "%"},
      {"net.client_self_us.search", "us"},
      {"net.client_self_us.publish", "us"},
      {"net.client_self_us.meet", "us"},
      {"net.client_self_share.search", "%"},
      {"net.client_self_share.publish", "%"},
      {"net.client_self_share.meet", "%"},
      {"net.transport_self_share", "%"},
      {"net.route_attempts_per_search", "count"},
      {"net.entries_per_node", "count"},
      {"net.meet_entries_useful_ratio", "ratio"},
      {"storage.persist_us.publish", "us"},
      {"storage.persist_us.meet", "us"},
      {"storage.write_bytes_per_op", "B"},
      {"storage.write_calls_per_op", "count"},
      {"storage.recover_ms_per_node", "ms"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kSpecs;
}

void CompletePerLayer(RunResult* r) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : PerLayerMetrics()) {
    Metric m{spec.name, 0.0, spec.unit};
    for (const Metric& have : r->metrics) {
      if (have.name == spec.name) m.value = have.value;
    }
    ordered.push_back(m);
  }
  for (const Metric& have : r->metrics) {
    const bool known = std::any_of(
        PerLayerMetrics().begin(), PerLayerMetrics().end(),
        [&](const MetricSpec& spec) { return have.name == spec.name; });
    if (!known) r->Fail("unlisted per-layer metric " + have.name);
  }
  r->metrics = std::move(ordered);
}

std::string WriteTrace(const std::string& dir, const std::string& workload,
                       const std::string& chrome_json) {
  const std::string path = dir + "/trace-" + workload + ".json";
  std::ofstream out(path);
  out << chrome_json;
  return out.good() ? path : "";
}

std::string ResultJson(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + pgrid::obs::JsonEscape(m.name) + "\": {\"value\": " + value +
           ", \"unit\": \"" + pgrid::obs::JsonEscape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
