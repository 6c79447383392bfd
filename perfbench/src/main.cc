// perfbench: runs one workload for one seed and prints its metrics.
//
//   perfbench --workload=<sim_build|node_read|node_durable> --seed=<n>
//             --seconds=<s> --trace=<0|1> --work-dir=<dir>
//
// Lines before the last describe the host and the run; the last line is the
// result JSON. The exit code is 0 whenever a result was printed (the result
// says whether the outputs were correct) and 2 for a bad command line.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "util/flags.h"
#include "workloads.h"

namespace perfbench {

namespace {

int Main(int argc, char** argv) {
  const pgrid::FlagSet flags(std::vector<std::string>(argv + 1, argv + argc));
  const std::string workload = flags.GetString("workload", "");
  const pgrid::Result<int64_t> seed = flags.GetInt("seed", 1);
  const pgrid::Result<double> seconds = flags.GetDouble("seconds", 10.0);
  const pgrid::Result<int64_t> trace = flags.GetInt("trace", 0);
  const std::string work_dir = flags.GetString("work-dir", "");
  RunResult (*run)(const RunOptions&) = workload == "sim_build"      ? RunSimBuild
                                        : workload == "node_read"    ? RunNodeRead
                                        : workload == "node_durable" ? RunNodeDurable
                                                                     : nullptr;
  if (run == nullptr || !seed.ok() || !seconds.ok() || *seconds <= 0.0 || !trace.ok() ||
      work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=<sim_build|node_read|node_durable> "
                 "--seed=<n> --seconds=<s> --trace=<0|1> --work-dir=<dir>\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);

  RunOptions options;
  options.seed = static_cast<uint64_t>(*seed);
  options.seconds = *seconds;
  options.trace = *trace != 0;
  options.work_dir = work_dir;
  const CpuTimes cpu_before = ReadCpuTimes();
  RunResult result = run(options);
  const double steal = StealShare(cpu_before, ReadCpuTimes());

  std::printf("# perfbench workload=%s seed=%lld seconds=%g trace=%d nproc=%ld "
              "work_fs=%s steal_pct=%.2f",
              workload.c_str(), static_cast<long long>(*seed), *seconds,
              options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              FsType(work_dir).c_str(), 100.0 * steal);
  for (const std::string& e : result.env) std::printf(" %s", e.c_str());
  std::printf("\n");
  for (const std::string& p : result.problems) std::printf("# problem: %s\n", p.c_str());
  std::printf("%s\n", ResultJson(result).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
