#include "src/layers.h"

#include <cstdlib>
#include <map>
#include <sstream>

namespace perfbench {

uint64_t CounterValue(const char* name) {
  return fivm::obs::MetricRegistry::Default().GetCounter(name)->Value();
}

fivm::obs::HistogramSnapshot HistogramOf(const char* name) {
  return fivm::obs::MetricRegistry::Default().GetHistogram(name)->Snap();
}

std::string MetricSafe(const std::string& name) {
  std::string out;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    out += ok ? c : '_';
  }
  return out;
}

std::string ViewMetricName(const std::string& view) {
  if (view.rfind("V@", 0) != 0) return MetricSafe(view);
  const std::string body = view.substr(2);
  const size_t rels = body.rfind('_');
  const size_t first = std::min(body.find(','), rels);
  if (rels == std::string::npos) return MetricSafe("V_" + body);
  return MetricSafe("V_" + body.substr(0, first) + body.substr(rels));
}

namespace {

/// Calls fn(leaf, kind, ms) for every annotated step of an ExplainAnalyze
/// dump. Plans start with "plan for leaf <name>[vars]"; step lines are
/// "  <i>. join ...", "  <i>. ⊕...", "  <i>. store δ..." and carry
/// "time=<ms>ms" in their annotation.
template <typename Fn>
void ForEachStep(const std::string& explain, Fn&& fn) {
  std::istringstream in(explain);
  std::string line, leaf;
  const std::string plan_prefix = "plan for leaf ";
  while (std::getline(in, line)) {
    if (line.rfind(plan_prefix, 0) == 0) {
      leaf = line.substr(plan_prefix.size());
      leaf = leaf.substr(0, leaf.find('['));
      continue;
    }
    const size_t dot = line.find(". ");
    const size_t tpos = line.find("time=");
    if (dot == std::string::npos || tpos == std::string::npos) continue;
    const std::string body = line.substr(dot + 2);
    const char* kind = body.rfind("join", 0) == 0    ? "join"
                       : body.rfind("store", 0) == 0 ? "absorb"
                                                     : "marginalize";
    fn(leaf, kind, std::strtod(line.c_str() + tpos + 5, nullptr));
  }
}

}  // namespace

void AddPlanStepMetrics(const std::string& explain, double per, Result* out) {
  std::map<std::string, double> ms;
  ForEachStep(explain, [&](const std::string& leaf, const char* kind,
                           double t) {
    ms["plan.step_ms." + MetricSafe(leaf) + "." + kind] += t;
  });
  for (const auto& [name, t] : ms) out->Metric(name, t / per, "ms");
}

double TotalPlanStepMs(const std::string& explain) {
  double total = 0;
  ForEachStep(explain,
              [&](const std::string&, const char*, double t) { total += t; });
  return total;
}

}  // namespace perfbench
