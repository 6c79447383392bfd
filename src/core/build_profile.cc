#include "core/build_profile.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace pgrid {
namespace {

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

/// Nearest-rank percentile of a sorted sample (0 on empty input).
uint64_t PercentileNs(const std::vector<uint64_t>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

void AppendWaveStructure(std::string* out, const WaveProfile& w) {
  out->append("{\"batch\": ");
  AppendU64(out, w.batch);
  out->append(", \"wave\": ");
  AppendU64(out, w.wave);
  out->append(", \"scheduled\": ");
  AppendU64(out, w.scheduled);
  out->append(", \"width\": ");
  AppendU64(out, w.width);
}

}  // namespace

uint64_t BuildProfile::SerialNs() const {
  uint64_t total = schedule_ns + merge_ns;
  for (const WaveProfile& w : waves) total += w.color_ns + w.merge_ns;
  return total;
}

uint64_t BuildProfile::RunNs() const {
  uint64_t total = 0;
  for (const WaveProfile& w : waves) total += w.run_ns;
  return total;
}

uint64_t BuildProfile::BusyNs() const {
  uint64_t total = 0;
  for (const WaveProfile& w : waves) {
    for (uint64_t b : w.lane_busy_ns) total += b;
  }
  return total;
}

double BuildProfile::SerialFraction() const {
  if (total_ns == 0) return 0.0;
  return static_cast<double>(SerialNs()) / static_cast<double>(total_ns);
}

double BuildProfile::Utilization() const {
  const uint64_t run = RunNs();
  if (run == 0 || threads == 0) return 0.0;
  return static_cast<double>(BusyNs()) /
         (static_cast<double>(threads) * static_cast<double>(run));
}

std::vector<uint64_t> BuildProfile::BarrierWaitSamplesNs() const {
  std::vector<uint64_t> samples;
  samples.reserve(waves.size() * threads);
  for (const WaveProfile& w : waves) {
    for (uint64_t busy : w.lane_busy_ns) {
      samples.push_back(w.run_ns > busy ? w.run_ns - busy : 0);
    }
  }
  return samples;
}

std::string BuildProfile::ToJson() const {
  std::vector<uint64_t> waits = BarrierWaitSamplesNs();
  std::sort(waits.begin(), waits.end());

  std::string out = "{\"threads\": ";
  AppendU64(&out, threads);
  out.append(", \"waves\": ");
  AppendU64(&out, waves.size());
  out.append(", \"total_ns\": ");
  AppendU64(&out, total_ns);
  out.append(", \"schedule_ns\": ");
  AppendU64(&out, schedule_ns);
  out.append(", \"merge_ns\": ");
  AppendU64(&out, merge_ns);
  out.append(", \"serial_ns\": ");
  AppendU64(&out, SerialNs());
  out.append(", \"run_ns\": ");
  AppendU64(&out, RunNs());
  out.append(", \"busy_ns\": ");
  AppendU64(&out, BusyNs());
  out.append(", \"serial_fraction\": ");
  AppendDouble(&out, SerialFraction());
  out.append(", \"utilization\": ");
  AppendDouble(&out, Utilization());
  out.append(", \"barrier_wait_ns\": {\"samples\": ");
  AppendU64(&out, waits.size());
  out.append(", \"p50\": ");
  AppendU64(&out, PercentileNs(waits, 50.0));
  out.append(", \"p95\": ");
  AppendU64(&out, PercentileNs(waits, 95.0));
  out.append(", \"p99\": ");
  AppendU64(&out, PercentileNs(waits, 99.0));
  out.append("}, \"waves_detail\": [");
  for (size_t i = 0; i < waves.size(); ++i) {
    const WaveProfile& w = waves[i];
    if (i > 0) out.append(", ");
    AppendWaveStructure(&out, w);
    out.append(", \"color_ns\": ");
    AppendU64(&out, w.color_ns);
    out.append(", \"run_ns\": ");
    AppendU64(&out, w.run_ns);
    out.append(", \"merge_ns\": ");
    AppendU64(&out, w.merge_ns);
    out.append(", \"lane_busy_ns\": [");
    for (size_t l = 0; l < w.lane_busy_ns.size(); ++l) {
      if (l > 0) out.append(", ");
      AppendU64(&out, w.lane_busy_ns[l]);
    }
    out.append("]}");
  }
  out.append("]}");
  return out;
}

std::string BuildProfile::StructureJson() const {
  std::string out = "{\"waves\": [";
  for (size_t i = 0; i < waves.size(); ++i) {
    if (i > 0) out.append(", ");
    AppendWaveStructure(&out, waves[i]);
    out.append("}");
  }
  out.append("]}");
  return out;
}

}  // namespace pgrid
