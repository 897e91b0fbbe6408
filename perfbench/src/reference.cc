#include "src/reference.h"

#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

void Moments::AddFrom(const Moments& o) {
  count += o.count;
  for (size_t i = 0; i < sum.size(); ++i) sum[i] += o.sum[i];
  for (size_t i = 0; i < q.size(); ++i) q[i] += o.q[i];
}

namespace {

/// Per-relation sufficient statistics of the tuples sharing one key.
struct RelStats {
  double cnt = 0;
  std::vector<int> vars;    // variable id of each non-key column
  std::vector<double> s;    // Σ w·x_v
  std::vector<double> q;    // Σ w·x_v·x_u, dense |vars|²
};

}  // namespace

void AddStarKeyMoments(const StarLayout& layout, double key,
                       const std::vector<std::vector<WeightedTuple>>& per_rel,
                       bool absolute, Moments* out) {
  const size_t nrel = layout.col_var.size();
  const size_t n = layout.vars;
  std::vector<RelStats> st(nrel);
  for (size_t r = 0; r < nrel; ++r) {
    const std::vector<int>& cols = layout.col_var[r];
    RelStats& rs = st[r];
    rs.vars.assign(cols.begin() + 1, cols.end());
    const size_t m = rs.vars.size();
    rs.s.assign(m, 0.0);
    rs.q.assign(m * m, 0.0);
    std::vector<double> x(m);
    for (const WeightedTuple& wt : per_rel[r]) {
      const double w = absolute ? std::fabs(wt.w) : wt.w;
      for (size_t i = 0; i < m; ++i) {
        x[i] = (*wt.t)[i + 1].AsDouble();
        if (absolute) x[i] = std::fabs(x[i]);
      }
      rs.cnt += w;
      for (size_t i = 0; i < m; ++i) {
        rs.s[i] += w * x[i];
        for (size_t j = 0; j < m; ++j) rs.q[i * m + j] += w * x[i] * x[j];
      }
    }
  }
  // Products of the other relations' counts: all but r, and all but r1, r2.
  auto others = [&](size_t r1, size_t r2) {
    double p = 1.0;
    for (size_t r = 0; r < nrel; ++r) {
      if (r != r1 && r != r2) p *= st[r].cnt;
    }
    return p;
  };
  const double k = absolute ? std::fabs(key) : key;
  const double all = others(nrel, nrel);
  out->count += all;
  auto q = [&](int a, int b) -> double& {
    return out->q[static_cast<size_t>(a) * n + static_cast<size_t>(b)];
  };
  if (layout.key_var >= 0) {
    out->sum[layout.key_var] += k * all;
    q(layout.key_var, layout.key_var) += k * k * all;
  }
  for (size_t r = 0; r < nrel; ++r) {
    const RelStats& a = st[r];
    const double ex = others(r, nrel);
    const size_t m = a.vars.size();
    for (size_t i = 0; i < m; ++i) {
      out->sum[a.vars[i]] += a.s[i] * ex;
      if (layout.key_var >= 0) {
        q(layout.key_var, a.vars[i]) += k * a.s[i] * ex;
        q(a.vars[i], layout.key_var) += k * a.s[i] * ex;
      }
      for (size_t j = 0; j < m; ++j) q(a.vars[i], a.vars[j]) += a.q[i * m + j] * ex;
    }
    for (size_t r2 = 0; r2 < nrel; ++r2) {
      if (r2 == r) continue;
      const RelStats& b = st[r2];
      const double ex2 = others(r, r2);
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < b.vars.size(); ++j) {
          q(a.vars[i], b.vars[j]) += a.s[i] * b.s[j] * ex2;
        }
      }
    }
  }
}

bool MatchesMoments(const fivm::RegressionPayload& got, const Moments& ref,
                    const Moments& scale, const std::vector<int>& vars,
                    const std::vector<uint32_t>& slots, std::string* why) {
  char buf[200];
  if (got.count() != ref.count) {
    std::snprintf(buf, sizeof buf, "count %.17g != reference %.17g",
                  got.count(), ref.count);
    *why = buf;
    return false;
  }
  auto close = [](double a, double b, double s) {
    return std::fabs(a - b) <= 1e-9 * s + 1e-9;
  };
  for (int v : vars) {
    const double g = got.Sum(slots[v]);
    if (!close(g, ref.sum[v], scale.sum[v])) {
      std::snprintf(buf, sizeof buf, "sum[var %d] %.17g != reference %.17g",
                    v, g, ref.sum[v]);
      *why = buf;
      return false;
    }
    for (int u : vars) {
      if (u < v) continue;
      const double gq = got.Cofactor(slots[v], slots[u]);
      if (!close(gq, ref.Q(v, u), scale.Q(v, u))) {
        std::snprintf(buf, sizeof buf,
                      "moment[var %d, var %d] %.17g != reference %.17g", v, u,
                      gq, ref.Q(v, u));
        *why = buf;
        return false;
      }
    }
  }
  return true;
}

int64_t BruteForceTriangles(const std::vector<fivm::Tuple>& r,
                            const std::vector<fivm::Tuple>& s,
                            const std::vector<fivm::Tuple>& t) {
  auto pack = [](int64_t x, int64_t y) {
    return (static_cast<uint64_t>(x) << 32) ^ static_cast<uint64_t>(y);
  };
  // R grouped by b, S grouped by b, T as a (c, a) -> multiplicity map.
  std::unordered_map<int64_t, std::vector<int64_t>> r_by_b, s_by_b;
  for (const fivm::Tuple& e : r) r_by_b[e[1].AsInt()].push_back(e[0].AsInt());
  for (const fivm::Tuple& e : s) s_by_b[e[0].AsInt()].push_back(e[1].AsInt());
  std::unordered_map<uint64_t, int64_t> t_mult;
  for (const fivm::Tuple& e : t) t_mult[pack(e[0].AsInt(), e[1].AsInt())] += 1;
  int64_t count = 0;
  for (const auto& [b, as] : r_by_b) {
    auto it = s_by_b.find(b);
    if (it == s_by_b.end()) continue;
    for (int64_t a : as) {
      for (int64_t c : it->second) {
        auto tt = t_mult.find(pack(c, a));
        if (tt != t_mult.end()) count += tt->second;
      }
    }
  }
  return count;
}

}  // namespace perfbench
