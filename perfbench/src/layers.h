// Per-layer readings taken from outside the program: the counters and
// histograms it exports through obs::MetricRegistry, the plan-step profile
// of IvmEngine::ExplainAnalyze, and the sizes of the engine's stores.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <string>

#include "src/core/ivm_engine.h"
#include "src/data/relation_ops.h"
#include "src/harness.h"
#include "src/obs/metrics.h"

namespace perfbench {

uint64_t CounterValue(const char* name);
fivm::obs::HistogramSnapshot HistogramOf(const char* name);

/// Metric-safe form of a name: characters outside [A-Za-z0-9_.-] become '_'.
std::string MetricSafe(const std::string& name);

/// Short metric-safe name of a view: "V@<v1,v2,...>_<relations>" keeps
/// only its first variable and its relations ("V@A,B_STR" -> "V_A_STR");
/// relation leaves keep their name.
std::string ViewMetricName(const std::string& view);

/// Adds plan.step_ms.<leaf>.<join|marginalize|absorb>, the plan-step wall
/// times parsed from an ExplainAnalyze dump, each divided by `per`.
void AddPlanStepMetrics(const std::string& explain, double per, Result* out);

/// Sum of every plan step's time in an ExplainAnalyze dump, in ms.
double TotalPlanStepMs(const std::string& explain);

/// store.keys.<view> and store.mb.<view> of every materialized store.
template <typename Ring>
void AddStoreMetrics(const fivm::IvmEngine<Ring>& engine, Result* out) {
  const fivm::ViewTree& tree = engine.tree();
  for (size_t i = 0; i < tree.nodes().size(); ++i) {
    const auto& n = tree.node(static_cast<int>(i));
    if (!n.materialized) continue;
    const auto& store = engine.store(static_cast<int>(i));
    out->Metric("store.keys." + ViewMetricName(n.name),
                static_cast<double>(store.size()), "count");
    out->Metric("store.mb." + ViewMetricName(n.name),
                store.ApproxBytes() / 1e6, "MB");
  }
}

/// Stored keys of `live` that a re-evaluation (`fresh`, built from the live
/// tuples alone) does not hold, summed over the materialized stores.
template <typename Ring>
size_t GhostKeys(const fivm::IvmEngine<Ring>& live,
                 const fivm::IvmEngine<Ring>& fresh) {
  size_t ghosts = 0;
  const fivm::ViewTree& tree = live.tree();
  for (size_t i = 0; i < tree.nodes().size(); ++i) {
    if (!tree.node(static_cast<int>(i)).materialized) continue;
    const auto& have = live.store(static_cast<int>(i));
    const auto& want = fresh.store(static_cast<int>(i));
    have.ForEach([&](const fivm::Tuple& k, const typename Ring::Element&) {
      if (want.Find(k) == nullptr) ++ghosts;
    });
  }
  return ghosts;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
