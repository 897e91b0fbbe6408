// fivm_perfbench: the end-to-end benchmark of view maintenance and the
// serving stack. perfbench/run.py builds and runs it:
//
//   fivm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--small] [--perturb <check>] [--commit <id>]
//                  [--shards <n>]
//
// It prints its environment, one line per check, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Without
// tracing the metrics are the end-to-end set; with tracing, the per-layer
// set (kPerLayer below; every traced run prints all of them, 0 where a
// layer is idle on the workload).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/harness.h"
#include "src/obs/metrics.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

#include "src/per_layer.inc"

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      if (c != std::string::npos) return line.substr(c + 2);
    }
  }
  return "unknown";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: fivm_perfbench --workload "
               "<housing_cofactor|triangle_count|service_churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--small] [--perturb <check>] "
               "[--commit <id>] [--shards <n>]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  NowS();  // anchor the process clock
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--small") {
      args.small = true;
      continue;
    }
    if (a != "--workload" && a != "--seed" && a != "--seconds" &&
        a != "--trace" && a != "--perturb" && a != "--commit" &&
        a != "--shards") {
      return Usage(("unknown argument " + a).c_str());
    }
    if ((v = value()) == nullptr) return Usage(("missing value for " + a).c_str());
    if (a == "--workload") args.workload = v;
    if (a == "--seed") args.seed = std::strtoull(v, nullptr, 10);
    if (a == "--seconds") args.seconds = std::atof(v);
    if (a == "--trace") args.trace = std::strcmp(v, "1") == 0;
    if (a == "--perturb") args.perturb = v;
    if (a == "--commit") args.commit = v;
    if (a == "--shards") args.shards = std::strtoull(v, nullptr, 10);
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  Result (*run)(const Args&) = nullptr;
  if (args.workload == "housing_cofactor") run = RunHousingCofactor;
  if (args.workload == "triangle_count") run = RunTriangleCount;
  if (args.workload == "service_churn") run = RunServiceChurn;
  if (run == nullptr) return Usage(("unknown workload '" + args.workload + "'").c_str());

#ifdef NDEBUG
  const char* build = "optimized (NDEBUG)";
#else
  const char* build = "assertions on";
#endif
  std::printf("env: commit=%s build=%s metrics=%s nproc=%zu cpu=\"%s\"\n",
              args.commit.c_str(), build,
              FIVM_METRICS_ENABLED ? "on" : "off", HardwareThreads(),
              CpuModel().c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d small=%d "
              "perturb=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.small ? 1 : 0,
              args.perturb.empty() ? "-" : args.perturb.c_str());

  Result res = run(args);

  if (args.trace) {
    // Every per-layer metric, in table order; layers idle on this workload
    // read 0. A reading outside the table is a benchmark bug.
    Result table = res;
    table.metrics.clear();
    for (const LayerMetric& m : kPerLayer) {
      table.Metric(m.name, 0.0, m.unit);
    }
    int unknown = 0;
    for (const auto& [name, vu] : res.metrics) {
      bool known = false;
      for (auto& t : table.metrics) {
        if (t.first == name) {
          t.second.first = vu.first;
          known = true;
        }
      }
      if (!known) {
        std::fprintf(stderr, "error: per-layer reading not in the table: {\"%s\", \"%s\"},\n",
                     name.c_str(), vu.second.c_str());
        ++unknown;
      }
    }
    if (unknown > 0) return 3;
    res = table;
  }
  for (const std::string& line : res.check_log) std::printf("%s\n", line.c_str());
  std::printf("operations: attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              res.correct ? "true" : "false");
  std::printf("%s\n", res.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
