// servebench — the serving benchmark's binary (run it through
// servebench/run.py, which builds it).
//
//   servebench --workload inproc_saturated|fleet_paced|fleet_churn
//              --seed N --seconds S --trace 0|1 --necd PATH --out-dir DIR
//
// --trace 0 runs the workload untraced and reports its end-to-end
// metrics; --trace 1 runs the layer walk and reports per-layer metrics.
// The last stdout line is the result object; the line before it is the
// operation accounting.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

/// nproc, CPU model and build flags, printed with every run.
void PrintMachine() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, model = "unknown";
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::printf("servebench-machine {\"nproc\": %u, \"cpu\": \"%s\", "
              "\"build_flags\": \"%s\"}\n",
              std::thread::hardware_concurrency(), model.c_str(),
              SERVEBENCH_BUILD_FLAGS);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace servebench;
  RunArgs args;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--necd") {
      args.necd = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "servebench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const bool known = args.workload == "inproc_saturated" ||
                     args.workload == "fleet_paced" ||
                     args.workload == "fleet_churn";
  if (!known || (trace != 0 && trace != 1) || args.seconds <= 0 ||
      args.necd.empty() || args.out_dir.empty()) {
    std::fprintf(stderr,
                 "usage: servebench --workload inproc_saturated|fleet_paced|"
                 "fleet_churn --seed N --seconds S --trace 0|1 --necd PATH "
                 "--out-dir DIR\n");
    return 2;
  }
  mkdir(args.out_dir.c_str(), 0755);

  try {
    RunResult result;
    if (trace == 1) {
      result = RunLayerWalk(args);
    } else if (args.workload == "inproc_saturated") {
      result = RunInprocSaturated(args);
    } else if (args.workload == "fleet_paced") {
      result = RunFleetPaced(args);
    } else {
      result = RunFleetChurn(args);
    }
    PrintMachine();
    PrintDetail(args.workload, result.acct, result.detail);
    PrintResult(result.correct, result.acct, result.metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
  return 0;
}
