// Reference computations made apart from the program: they read only the
// generated tuples and never call the engine, its rings or its operators.
// The workloads compare the program's maintained results against them.
#ifndef PERFBENCH_SRC_REFERENCE_H_
#define PERFBENCH_SRC_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/data/tuple.h"
#include "src/rings/regression_ring.h"

namespace perfbench {

/// Count, linear sums and second moments of a join result over `n`
/// variables (indexed by variable id), with q a dense n x n matrix.
struct Moments {
  explicit Moments(size_t n = 0) : sum(n, 0.0), q(n * n, 0.0) {}
  double count = 0;
  std::vector<double> sum;
  std::vector<double> q;
  size_t n() const { return sum.size(); }
  double Q(size_t i, size_t j) const { return q[i * n() + j]; }
  void AddFrom(const Moments& o);
};

/// A star join on one key column (column 0 of every relation): per relation,
/// the variable id of each column. `key_var` is the key's variable id, or -1
/// when the key is a free (group-by) variable whose moments are not kept.
struct StarLayout {
  size_t vars = 0;
  int key_var = -1;
  std::vector<std::vector<int>> col_var;  // [relation][column] -> var id
};

struct WeightedTuple {
  const fivm::Tuple* t;
  double w;  // multiplicity: +1 per insert, -1 per delete
};

/// Adds to `out` the moments of the star join of the given tuples, all of
/// which carry key value `key`: per relation the count, sums and second
/// moments of its own columns, multiplied across relations by the
/// star-join formula. With `absolute` every value and weight enters by its
/// magnitude, which bounds the rounding of any summation order.
void AddStarKeyMoments(const StarLayout& layout, double key,
                       const std::vector<std::vector<WeightedTuple>>& per_rel,
                       bool absolute, Moments* out);

/// Compares a maintained regression payload with reference moments over
/// the variables `vars` (slot of each from `slots`). Counts must match
/// exactly; sums and moments within 1e-9 of `scale`'s entries. On mismatch
/// writes the first difference to `*why`.
bool MatchesMoments(const fivm::RegressionPayload& got, const Moments& ref,
                    const Moments& scale, const std::vector<int>& vars,
                    const std::vector<uint32_t>& slots, std::string* why);

/// Brute-force triangle count Σ R(a,b)·S(b,c)·T(c,a) over edge multisets.
int64_t BruteForceTriangles(const std::vector<fivm::Tuple>& r,
                            const std::vector<fivm::Tuple>& s,
                            const std::vector<fivm::Tuple>& t);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REFERENCE_H_
