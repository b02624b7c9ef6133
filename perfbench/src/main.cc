// tuffy_perfbench: runs one named workload and prints its metrics.
//
//   tuffy_perfbench --workload <batch_ground|batch_search|serve_rc|learn_rc>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--smoke] [--corrupt-expected] [--work-dir <dir>]
//
// Progress and "CHECK <name> ok|FAIL" lines go to stdout; the last line
// is one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see perfbench/README.md). Exit code 0 iff every check
// passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: tuffy_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--corrupt-expected] "
               "[--work-dir <dir>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (flag == "--corrupt-expected") {
      args.corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Report report;
  if (args.trace) {
    // A layer the workload does not exercise reports 0.
    for (const auto& [name, unit] : perfbench::PerLayerMetrics()) {
      report.Metric(name, 0.0, unit);
    }
  }
  int status;
  if (args.workload == "batch_ground" || args.workload == "batch_search") {
    status = perfbench::RunBatch(args, &report);
  } else if (args.workload == "serve_rc") {
    status = perfbench::RunServe(args, &report);
  } else if (args.workload == "learn_rc") {
    status = perfbench::RunLearn(args, &report);
  } else {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (status != 0) report.Check("workload_completed", false);
  report.PrintResult();
  return report.correct() ? 0 : 1;
}
