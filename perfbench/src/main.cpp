// gridrm_perfbench: runs one workload of the end-to-end benchmark and
// prints its result as one JSON object on the last line of stdout.
//
//   gridrm_perfbench --workload <site-dashboard|site-harvest|grid-federation>
//                    --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::RunResult;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gridrm_perfbench: %s\nusage: gridrm_perfbench --workload "
               "<site-dashboard|site-harvest|grid-federation> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--out") {
      o.outDir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

void printJson(const RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Pin the process to one CPU, the highest-numbered it may use, before
/// any thread starts; every thread the workload starts inherits it. The
/// gateway hands work between its client, scheduler and remote-gateway
/// threads. Spread over the cores of a shared virtual machine, each
/// hand-off waits for the host to run another virtual CPU, and runs of
/// the same code spread by more than half. On one CPU a hand-off is a
/// context switch, and the figures are the program's work.
void pinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      std::fprintf(stderr, "gridrm_perfbench: could not pin to CPU %d\n", cpu);
    }
    return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  pinToOneCpu();
  RunResult result;
  try {
    if (options.workload == "site-dashboard") {
      result = perfbench::runSiteDashboard(options);
    } else if (options.workload == "site-harvest") {
      result = perfbench::runSiteHarvest(options);
    } else if (options.workload == "grid-federation") {
      result = perfbench::runGridFederation(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: aborted: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  if (!result.correct) {
    std::fprintf(stderr, "%s: check failed: %s\n", options.workload.c_str(),
                 result.error.c_str());
  }
  printJson(result);
  return result.correct ? 0 : 1;
}
