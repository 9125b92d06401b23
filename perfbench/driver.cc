// perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR
//
// Runs one workload and prints, as its last line, the result object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (docs in perfbench/README.md). Exit 0 only with a result.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "fleet_live|sweep_dense --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

// The end-to-end metrics are never 0 on a healthy run; a 0 means a
// percentile lacked samples, which is a failed run, not a fast one.
const char* const kEndToEnd[] = {"setup_s", "updates_per_s", "write_p50_us",
                                 "peak_rss_mb"};

}  // namespace

int main(int argc, char** argv) {
  perfbench::Phase("start");
  perfbench::Args args;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !have_trace || args.work_dir.empty() ||
      !(args.seconds > 0)) {
    return Usage("missing or malformed arguments");
  }

  perfbench::Result result;
  if (args.workload == "fleet_live") {
    result = perfbench::RunFleetLive(args);
  } else if (args.workload == "sweep_dense") {
    result = perfbench::RunSweepDense(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  for (const std::string& why : result.mismatches) {
    std::printf("MISMATCH: %s\n", why.c_str());
  }
  const std::string bad = result.metrics.NonFinite();
  if (!bad.empty()) {
    std::fprintf(stderr, "perfbench_driver: non-finite metrics: %s\n",
                 bad.c_str());
    return 3;
  }
  if (!args.trace) {
    for (const char* name : kEndToEnd) {
      const std::optional<double> value = result.metrics.Get(name);
      if (!value.has_value() || !(*value > 0)) {
        std::fprintf(stderr, "perfbench_driver: %s missing or not positive\n",
                     name);
        return 3;
      }
    }
  }
  std::printf("%s\n", result.metrics
                          .ToJson(result.correct, result.ops.attempted(),
                                  result.ops.failed())
                          .c_str());
  return 0;
}
