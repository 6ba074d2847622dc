// dvbench: runs one benchmark workload and prints its metrics.
//
//   dvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: pool-lineage-256, pool-churn-16, des-shards-1024. The last
// line of stdout is the result object; the exit code is non-zero when
// any output check failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  perfbench::Args args;
  perfbench::Report report;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else {
        std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
        return 2;
      }
    }
    if (!(args.seconds > 0)) {
      std::fprintf(stderr, "--seconds must be positive\n");
      return 2;
    }
    if (args.workload == "pool-lineage-256" ||
        args.workload == "pool-churn-16") {
      perfbench::run_pool_workload(args, report);
    } else if (args.workload == "des-shards-1024") {
      perfbench::run_des_workload(args, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run aborted: %s\n", e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
