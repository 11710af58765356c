// perfbench: sparktune's benchmark binary. Runs one workload and prints,
// as the last line of standard output, one JSON object with the run's
// correctness verdict and its metrics (end-to-end metrics untraced,
// per-layer metrics traced).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--expect-digest <hex>] [--work-dir <dir>] [--trace-out <file>]
//
// Exit status: 0 when every output check passed, 1 otherwise, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "metrics.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--expect-digest <hex>] [--work-dir <dir>] "
               "[--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.shardd = PERFBENCH_SHARDD_PATH;
  // Two service threads: parallel ticks, with cores to spare for the rest
  // of the machine so neighbours disturb the figures less.
  const unsigned hw = std::thread::hardware_concurrency();
  options.threads = hw >= 2 ? 2 : 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value != "0";
    } else if (arg == "--expect-digest") {
      options.expect_digest = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.seconds <= 0.0) {
    return Usage();
  }

  perfbench::RunResult result = perfbench::RunWorkload(options);
  const perfbench::Tier tier = options.trace ? perfbench::Tier::kPerLayer
                                             : perfbench::Tier::kEndToEnd;
  for (const std::string& problem : result.report.Problems(tier)) {
    result.errors.push_back("metric " + problem);
    result.correct = false;
  }
  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const auto& [key, value] : result.context) {
    std::printf("%s %s\n", key.c_str(), value.c_str());
  }
  std::printf("nproc %u\n", hw);
  std::printf("digest %s\n", result.digest.c_str());
  for (const std::string& error : result.errors) {
    std::printf("error %s\n", error.c_str());
  }
  std::printf("%s\n", result.report
                          .ResultLine(tier, result.correct, result.attempted,
                                      result.failed)
                          .c_str());
  return result.correct ? 0 : 1;
}
