// The benchmark's workloads. Each generates its inputs from Args::seed,
// measures for Args::seconds, checks the program's outputs against the
// computations in reference.h, and returns its metrics: the end-to-end set
// without tracing, the per-layer set with Args::trace.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "src/harness.h"

namespace perfbench {

Result RunHousingCofactor(const Args& args);
Result RunTriangleCount(const Args& args);
Result RunServiceChurn(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
