// End-to-end + per-layer benchmark of the crowd-enabled database.
//
//   e2e_bench --workload cold_build|sql_expand|serve_mixed --seed N
//             --seconds S --trace 0|1 [--state-dir DIR]
//
// Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
// (--trace 1) record spans around every public call the workload makes
// and print the per-layer metrics instead. Every run checks its outputs;
// the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any check failed. run.py builds this
// binary and is the intended entry point.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_support.h"

namespace {

using ccdb::e2e::Args;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--state-dir") {
      args->state_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0.0;
}

/// Timings of a Debug or sanitizer build do not describe the system.
bool MeasurableBuild() {
  bool ok = std::strcmp(E2E_BUILD_TYPE, "Release") == 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  ok = false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                    \
    __has_feature(undefined_behavior_sanitizer)
  ok = false;
#endif
#endif
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload cold_build|sql_expand|"
                 "serve_mixed --seed N --seconds S --trace 0|1 "
                 "[--state-dir DIR]\n");
    return 2;
  }
  if (!MeasurableBuild()) {
    std::fprintf(stderr, "e2e_bench refuses %s / sanitizer builds\n",
                 E2E_BUILD_TYPE);
    return 2;
  }
  ccdb::e2e::Report report;
  if (args.workload == "cold_build") {
    ccdb::e2e::RunColdBuild(args, report);
  } else if (args.workload == "sql_expand") {
    ccdb::e2e::RunSqlExpand(args, report);
  } else if (args.workload == "serve_mixed") {
    ccdb::e2e::RunServeMixed(args, report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  report.SetE2e("peak_rss_mb", ccdb::e2e::PeakRssMb());
  std::fprintf(stderr, "%s seed=%llu seconds=%g trace=%d\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0);
  report.PrintText(args.trace);
  std::printf("%s\n", report.ResultJson(args.trace).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
