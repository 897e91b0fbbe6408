// Measurement helpers shared by the workloads: clocks, process CPU and peak
// RSS, order statistics, the benchmark's own spans, and the result record
// that main() prints as the last line of standard output.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double NowS();
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// User + system CPU seconds of the whole process (all threads).
double ProcessCpuS();
/// Peak resident set size of the process, in MB.
double PeakRssMb();
size_t HardwareThreads();

/// Linear-interpolated percentile (p in [0,100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs and a short run: the benchmark's own self-test mode.
  bool small = false;
  /// Name of a check to feed a deliberately perturbed result ("" = none).
  std::string perturb;
  std::string commit = "unknown";
  /// Shard count of the engine workloads' executor (0 = the workload's
  /// own); only for the reference figures in README.md.
  size_t shards = 0;
};

/// Accumulated spans of the benchmark's own calls into the program's
/// layers. Spans are flat (each wraps one public call made from the
/// benchmark) and are kept in memory as per-name totals.
/// Disabled spans cost one branch.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void Add(const std::string& name, uint64_t ns) { total_ns_[name] += ns; }
  double TotalMs(const std::string& name) const {
    auto it = total_ns_.find(name);
    return it == total_ns_.end() ? 0.0 : it->second / 1e6;
  }

 private:
  bool enabled_;
  std::map<std::string, uint64_t> total_ns_;
};

/// Times `fn()` into span `name` when spans are on; just calls it otherwise.
template <typename Fn>
inline void Span(Spans* spans, const char* name, Fn&& fn) {
  if (spans == nullptr || !spans->enabled()) {
    fn();
    return;
  }
  const uint64_t t0 = NowNs();
  fn();
  spans->Add(name, NowNs() - t0);
}

/// One outcome of a run: the counts of attempted and failed operations, the
/// checks' verdicts, and the named metrics in the order they are printed.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> check_log;

  void Metric(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics) {
      if (m.first == name) {
        m.second = {value, unit};
        return;
      }
    }
    metrics.push_back({name, {value, unit}});
  }
  /// Records one check. A check is an attempted operation; a failed one is
  /// also a failed operation and makes the run incorrect.
  void Check(bool ok, const std::string& what);
  std::string Json() const;
};

/// Relative-tolerance comparison used by the floating-point checks:
/// |a - b| <= rel * scale + abs.
inline bool Close(double a, double b, double scale, double rel = 1e-9,
                  double abs = 1e-9) {
  double d = a - b;
  if (d < 0) d = -d;
  return d <= rel * scale + abs;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
