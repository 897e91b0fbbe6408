#include "src/harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

double NowS() {
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

size_t HardwareThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Result::Check(bool ok, const std::string& what) {
  attempted += 1;
  if (!ok) {
    failed += 1;
    correct = false;
  }
  check_log.push_back(std::string(ok ? "CHECK ok   " : "CHECK FAIL ") + what);
}

std::string Result::Json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char buf[64];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
