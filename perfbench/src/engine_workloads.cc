// housing_cofactor and triangle_count: the engine workloads. A run repeats
// whole rounds until --seconds have passed. A round builds the engine from
// scratch (tree, plans, Initialize on the base database), streams the
// pre-generated insert batches through DeltaBatcher -> ParallelExecutor,
// and checks the maintained result. Every round
// applies the same updates, so the medians over rounds are comparable
// across runs and seeds; the first round's set-up is the cold one reported
// as setup_s. A traced run measures half its rounds without spans and half
// with them, and reports the difference as the tracing overhead.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/core/view_tree.h"
#include "src/exec/delta_batcher.h"
#include "src/exec/parallel_executor.h"
#include "src/exec/thread_pool.h"
#include "src/harness.h"
#include "src/ivme/triangle_engine.h"
#include "src/layers.h"
#include "src/ml/cofactor.h"
#include "src/reference.h"
#include "src/workloads.h"
#include "src/workloads/housing.h"
#include "src/workloads/stream.h"
#include "src/workloads/twitter.h"

namespace perfbench {
namespace {

using fivm::Database;
using fivm::I64Ring;
using fivm::IvmEngine;
using fivm::RegressionPayload;
using fivm::RegressionRing;
using fivm::Tuple;
using fivm::ViewTree;
using fivm::workloads::UpdateStream;

constexpr size_t kBatch = 1000;

/// One engine with the execution layer in front of it, as a round builds it.
template <typename Ring>
struct Instance {
  std::unique_ptr<ViewTree> tree;
  std::unique_ptr<IvmEngine<Ring>> engine;
  std::unique_ptr<fivm::exec::ThreadPool> pool;
  std::unique_ptr<fivm::exec::ParallelExecutor<Ring>> executor;
  std::unique_ptr<fivm::exec::DeltaBatcher<Ring>> batcher;
};

template <typename Ring>
struct EngineWorkload {
  /// Builds tree, plans and engine (not yet initialized).
  std::function<std::unique_ptr<Instance<Ring>>()> make;
  size_t shards = 1;
  Database<Ring> base;  // loaded by Initialize before the stream
  Database<Ring> full;  // base + every streamed tuple: the restart input
  UpdateStream stream;
  /// Checks the maintained root payload after a round (first = the round
  /// whose result is compared with the independent reference).
  std::function<void(const typename Ring::Element&, bool first, Result*)> check;
};

struct RoundOut {
  double setup_s = 0, stream_s = 0, cpu_s = 0;
  uint64_t updates = 0;
  std::vector<double> lat_ms;
  double view_mb = 0;
  Result layers;  // per-layer readings of a traced round
};

template <typename Ring>
std::unique_ptr<Instance<Ring>> SetUp(const EngineWorkload<Ring>& w,
                                      const Database<Ring>& db) {
  auto inst = w.make();
  inst->engine->Initialize(db);
  const size_t threads = std::min(w.shards, HardwareThreads());
  inst->pool = std::make_unique<fivm::exec::ThreadPool>(threads);
  inst->executor = std::make_unique<fivm::exec::ParallelExecutor<Ring>>(
      inst->engine.get(), inst->pool.get(),
      typename fivm::exec::ParallelExecutor<Ring>::Options{.shards = w.shards});
  inst->batcher = std::make_unique<fivm::exec::DeltaBatcher<Ring>>(
      &inst->engine->plans(), /*capacity=*/0);
  return inst;
}

template <typename Ring>
const typename Ring::Element* RootOf(const IvmEngine<Ring>& engine) {
  return engine.result().Find(Tuple::Empty());
}

/// One round. `fresh` (traced rounds only) is an engine re-evaluated over
/// the final database, against which the round's stores count ghost keys.
template <typename Ring>
RoundOut RunRound(const EngineWorkload<Ring>& w, bool traced, bool first,
                  const IvmEngine<Ring>* fresh, Result* out) {
  RoundOut r;
  Spans spans(traced);
  if (traced) fivm::obs::MetricRegistry::Default().ResetAll();
  const double t_setup = NowS();
  auto inst = SetUp(w, w.base);
  r.setup_s = NowS() - t_setup;

  IvmEngine<Ring>& engine = *inst->engine;
  auto& batcher = *inst->batcher;
  auto& executor = *inst->executor;
  r.lat_ms.reserve(w.stream.batches().size());
  const double cpu0 = ProcessCpuS();
  const double t0 = NowS();
  for (const UpdateStream::Batch& b : w.stream.batches()) {
    const uint64_t b0 = NowNs();
    // A batch that throws is a failed operation; the round's result check
    // then fails as well.
    try {
      Span(&spans, "batcher.push", [&] { batcher.PushInserts(b.relation, b.tuples); });
      std::vector<typename fivm::exec::DeltaBatcher<Ring>::Batch> flushed;
      Span(&spans, "batcher.flush", [&] { flushed = batcher.Flush(); });
      for (auto& fb : flushed) {
        Span(&spans, "exec.apply_batch", [&] {
          executor.ApplyBatch(fb.relation, std::move(fb.delta));
        });
      }
    } catch (const std::exception& e) {
      if (out->failed++ == 0) std::fprintf(stderr, "batch failed: %s\n", e.what());
      continue;
    }
    r.lat_ms.push_back((NowNs() - b0) / 1e6);
    r.updates += b.tuples.size();
  }
  r.stream_s = NowS() - t0;
  r.cpu_s = ProcessCpuS() - cpu0;
  r.view_mb = engine.TotalBytes() / 1e6;

  const typename Ring::Element* root = RootOf(engine);
  const typename Ring::Element got = root ? *root : Ring::Zero();
  w.check(got, first, out);
  out->attempted += w.stream.batches().size();

  if (traced) {
    // Times per flushed batch (kBatch updates), so that the engine
    // workloads and service_churn's stage pass read in the same unit.
    Result& l = r.layers;
    const double updates = static_cast<double>(r.updates);
    const double batches = static_cast<double>(w.stream.batches().size());
    const std::string explain = engine.ExplainAnalyze();
    l.Metric("engine.apply_ms", TotalPlanStepMs(explain) / batches, "ms");
    AddPlanStepMetrics(explain, batches, &l);
    l.Metric("exec.apply_batch_ms", spans.TotalMs("exec.apply_batch") / batches,
             "ms");
    l.Metric("exec.partition_ms",
             HistogramOf("exec.partition_ns").sum / 1e6 / batches, "ms");
    l.Metric("exec.merge_ms", HistogramOf("exec.merge_ns").sum / 1e6 / batches,
             "ms");
    l.Metric("exec.shard_imbalance",
             HistogramOf("exec.shard_imbalance_x100").p50 / 100.0, "ratio");
    l.Metric("batcher.push_ns", spans.TotalMs("batcher.push") * 1e6 / updates,
             "ns");
    l.Metric("batcher.flush_ms", spans.TotalMs("batcher.flush") / batches, "ms");
    const double pushed = static_cast<double>(CounterValue("batcher.pushed_updates"));
    l.Metric("batcher.cancelled_per_pushed",
             pushed > 0 ? CounterValue("batcher.cancelled_keys") / pushed : 0,
             "ratio");
    l.Metric("group_table.probe_groups_p50",
             HistogramOf("group_table.probe_groups").p50, "groups");
    const double spanned = spans.TotalMs("batcher.push") +
                           spans.TotalMs("batcher.flush") +
                           spans.TotalMs("exec.apply_batch");
    l.Metric("trace.batch_ms", r.stream_s * 1e3 / batches, "ms");
    l.Metric("trace.batch_ms_p99", Percentile(r.lat_ms, 99), "ms");
    l.Metric("trace.untraced_pct",
             100.0 * (r.stream_s * 1e3 - spanned) / (r.stream_s * 1e3), "%");
    AddStoreMetrics(engine, &l);
    l.Metric("store.ghost_keys", static_cast<double>(GhostKeys(engine, *fresh)),
             "count");
  }
  return r;
}

/// Latency samples an untraced full-size run collects at the least: it runs
/// more whole rounds than --seconds allow when a round has few batches.
constexpr size_t kMinLatencySamples = 1000;

/// Runs rounds for `seconds` (at least one), untraced then traced halves
/// when tracing, and fills the result.
template <typename Ring>
void RunEngineWorkload(const Args& args, const EngineWorkload<Ring>& w,
                       double gen_s, Result* out,
                       std::function<void(Result*)> extra_layers) {
  std::vector<RoundOut> plain, traced;
  const double start = NowS();
  const double plain_until = start + (args.trace ? args.seconds / 2 : args.seconds);
  const size_t min_samples = args.trace || args.small ? 0 : kMinLatencySamples;
  size_t samples = 0;
  do {
    plain.push_back(RunRound<Ring>(w, false, plain.empty(), nullptr, out));
    samples += plain.back().lat_ms.size();
  } while (NowS() < plain_until || samples < min_samples);

  // Restart by re-evaluation: an engine initialized on the final database
  // must hold the maintained result. A traced run times it kTracedRestarts
  // times; the fastest is the per-layer recovery.reeval_ms (a deterministic
  // CPU-bound rebuild, so the minimum is the estimate least disturbed by
  // other load). An untraced run, which reports no restart time, restarts
  // once for the check.
  constexpr int kTracedRestarts = 5;
  std::vector<double> restart_times;
  std::unique_ptr<Instance<Ring>> restart;
  for (int i = 0; i < (args.trace ? kTracedRestarts : 1); ++i) {
    restart.reset();
    const double t_restart = NowS();
    restart = SetUp(w, w.full);
    restart_times.push_back(NowS() - t_restart);
  }
  const double restart_s = *std::min_element(restart_times.begin(), restart_times.end());
  const typename Ring::Element* root = RootOf(*restart->engine);
  w.check(root ? *root : Ring::Zero(), false, out);

  if (args.trace) {
    const double traced_until = NowS() + args.seconds / 2;
    do {
      traced.push_back(RunRound(w, true, false, restart->engine.get(), out));
    } while (NowS() < traced_until);
  }

  auto med = [](const std::vector<RoundOut>& rs, auto field) {
    std::vector<double> v;
    for (const RoundOut& r : rs) v.push_back(field(r));
    return Median(v);
  };
  const std::vector<RoundOut>& rs = plain;
  if (!args.trace) {
    out->Metric("updates_per_s",
                med(rs, [](const RoundOut& r) { return r.updates / r.stream_s; }),
                "1/s");
    // The latency median pools every batch of every round.
    std::vector<double> lat;
    for (const RoundOut& r : rs) lat.insert(lat.end(), r.lat_ms.begin(), r.lat_ms.end());
    out->Metric("latency_ms_p50", Percentile(lat, 50), "ms");
    out->Metric("cpu_us_per_update", med(rs, [](const RoundOut& r) { return r.cpu_s * 1e6 / r.updates; }), "us");
    std::printf("rounds=%zu latency_samples=%zu shards=%zu\n", rs.size(), lat.size(),
                w.shards);
    out->Metric("view_mb", rs.back().view_mb, "MB");
    out->Metric("peak_rss_mb", PeakRssMb(), "MB");
    out->Metric("setup_s", rs.front().setup_s, "s");
    return;
  }
  // Per-layer: medians over the traced rounds of each reading.
  Result& l = *out;
  for (const auto& [name, vu] : traced.back().layers.metrics) {
    std::vector<double> v;
    for (const RoundOut& r : traced) {
      for (const auto& [n2, vu2] : r.layers.metrics) {
        if (n2 == name) v.push_back(vu2.first);
      }
    }
    l.Metric(name, Median(v), vu.second);
  }
  const double plain_stream = med(plain, [](const RoundOut& r) { return r.stream_s; });
  const double traced_stream = med(traced, [](const RoundOut& r) { return r.stream_s; });
  l.Metric("trace.overhead_pct", 100.0 * (traced_stream / plain_stream - 1.0), "%");
  l.Metric("trace.rounds", static_cast<double>(traced.size()), "count");
  l.Metric("recovery.reeval_ms", restart_s * 1e3, "ms");
  l.Metric("workloads.gen_s", gen_s, "s");
  if (extra_layers) extra_layers(&l);
  std::printf("untraced rounds=%zu traced rounds=%zu\n", plain.size(), traced.size());
}

/// Splits each relation's tuples into a base part (the first `base_frac`)
/// and the rest, which is streamed round-robin in kBatch-tuple batches.
template <typename Ring>
void SplitBaseAndStream(const fivm::Query& query,
                        const std::vector<std::vector<Tuple>>& tuples,
                        double base_frac, EngineWorkload<Ring>* w) {
  w->base = fivm::MakeDatabase<Ring>(query);
  w->full = fivm::MakeDatabase<Ring>(query);
  std::vector<std::vector<Tuple>> rest(tuples.size());
  for (size_t r = 0; r < tuples.size(); ++r) {
    const size_t nbase = static_cast<size_t>(tuples[r].size() * base_frac);
    for (size_t i = 0; i < tuples[r].size(); ++i) {
      if (i < nbase) {
        w->base[r].Add(tuples[r][i], Ring::One());
      } else {
        rest[r].push_back(tuples[r][i]);
      }
      w->full[r].Add(tuples[r][i], Ring::One());
    }
  }
  w->stream = UpdateStream::RoundRobin(rest, kBatch);
}

}  // namespace

Result RunHousingCofactor(const Args& args) {
  Result out;
  fivm::workloads::HousingConfig cfg;
  cfg.postcodes = args.small ? 300 : 20000;
  cfg.scale = 4;
  cfg.seed = args.seed;
  const double g0 = NowS();
  auto ds = fivm::workloads::HousingDataset::Generate(cfg);
  const fivm::Query& query = *ds->query;
  EngineWorkload<RegressionRing> w;
  SplitBaseAndStream(query, ds->tuples, 0.25, &w);
  const double gen_s = NowS() - g0;
  size_t tuples = 0;
  for (const auto& rel : ds->tuples) tuples += rel.size();
  std::printf("input: housing postcodes=%llu scale=%d tuples=%zu streamed=%zu "
              "batch=%zu\n",
              static_cast<unsigned long long>(cfg.postcodes), cfg.scale, tuples,
              w.stream.total_tuples(), kBatch);

  // Reference: the star-join moments of all tuples, postcode by postcode.
  StarLayout layout;
  layout.vars = query.catalog().size();
  layout.key_var = static_cast<int>(ds->postcode);
  for (int r = 0; r < query.relation_count(); ++r) {
    std::vector<int> cols;
    for (fivm::VarId v : query.relation(r).schema) cols.push_back(static_cast<int>(v));
    layout.col_var.push_back(cols);
  }
  Moments ref(layout.vars);
  {
    std::vector<std::vector<std::vector<WeightedTuple>>> by_pc(
        cfg.postcodes, std::vector<std::vector<WeightedTuple>>(ds->tuples.size()));
    for (size_t r = 0; r < ds->tuples.size(); ++r) {
      for (const Tuple& t : ds->tuples[r]) {
        by_pc[static_cast<size_t>(t[0].AsInt())][r].push_back({&t, 1.0});
      }
    }
    for (size_t pc = 0; pc < by_pc.size(); ++pc) {
      AddStarKeyMoments(layout, static_cast<double>(pc), by_pc[pc], false, &ref);
    }
  }
  std::vector<int> vars;
  for (fivm::VarId v : query.AllVars()) vars.push_back(static_cast<int>(v));

  ViewTree slot_tree(ds->query.get(), &ds->vorder);
  const std::vector<uint32_t> slots = slot_tree.AssignAggregateSlots();
  w.make = [&] {
    auto inst = std::make_unique<Instance<RegressionRing>>();
    inst->tree = std::make_unique<ViewTree>(ds->query.get(), &ds->vorder);
    inst->tree->ComputeMaterialization({0, 1, 2, 3, 4, 5});
    inst->engine = std::make_unique<IvmEngine<RegressionRing>>(
        inst->tree.get(), fivm::ml::RegressionLiftings(query, inst->tree->AssignAggregateSlots()));
    return inst;
  };
  w.shards = args.shards > 0 ? args.shards : 1;
  w.check = [&](const RegressionPayload& got_in, bool first, Result* res) {
    RegressionPayload got = got_in;
    if (args.perturb == "housing.cofactor" && first && got.raw_size() > 0) {
      std::vector<double> raw(got.raw_data(), got.raw_data() + got.raw_size());
      raw[0] *= 1.0 + 1e-6;
      got = RegressionPayload::FromRaw(got.count(), got.lo(), got.hi(),
                                       raw.data(), raw.size());
    }
    std::string why;
    const bool ok = MatchesMoments(got, ref, ref, vars, slots, &why);
    res->Check(ok, std::string(first ? "first round: " : "") +
                       "cofactor == star-join reference (rel 1e-9) " + why);
  };
  RunEngineWorkload<RegressionRing>(args, w, gen_s, &out, nullptr);
  return out;
}

Result RunTriangleCount(const Args& args) {
  Result out;
  fivm::workloads::TwitterConfig cfg;
  cfg.nodes = args.small ? 200 : 2000;
  cfg.edges = args.small ? 3000 : 50000;
  cfg.zipf_theta = 0.8;
  cfg.seed = args.seed;
  const double g0 = NowS();
  auto ds = fivm::workloads::TwitterDataset::Generate(cfg);
  const fivm::Query& query = *ds->query;
  EngineWorkload<I64Ring> w;
  SplitBaseAndStream(query, ds->tuples, 0.25, &w);
  const double gen_s = NowS() - g0;
  std::printf("input: twitter nodes=%llu edges=%llu zipf=%.2f streamed=%zu "
              "batch=%zu\n",
              static_cast<unsigned long long>(cfg.nodes),
              static_cast<unsigned long long>(cfg.edges), cfg.zipf_theta,
              w.stream.total_tuples(), kBatch);

  int64_t brute = BruteForceTriangles(ds->tuples[0], ds->tuples[1], ds->tuples[2]);
  if (args.perturb == "triangle.brute") brute += 1;

  // IVM^ε replays the same base + stream, tuple by tuple.
  fivm::ivme::TriangleEngine<I64Ring> eps(query, ds->r, ds->s, ds->t);
  const double e0 = NowS();
  for (int r = 0; r < 3; ++r) {
    w.base[r].ForEach([&](const Tuple& t, const int64_t& m) { eps.ApplyUpdate(r, t, m); });
  }
  for (const UpdateStream::Batch& b : w.stream.batches()) {
    for (size_t i = 0; i < b.tuples.size(); ++i) {
      eps.ApplyUpdate(b.relation, b.tuples[i], UpdateStream::UnitPayload<I64Ring>(b, i));
    }
  }
  const double ivme_ms = (NowS() - e0) * 1e3;
  int64_t eps_count = eps.result();
  if (args.perturb == "triangle.ivme") eps_count += 1;
  out.Check(eps_count == brute, "IVM^eps count " + std::to_string(eps_count) +
                                    " == brute-force count " + std::to_string(brute));

  w.make = [&] {
    auto inst = std::make_unique<Instance<I64Ring>>();
    inst->tree = std::make_unique<ViewTree>(ds->query.get(), &ds->vorder);
    inst->tree->ComputeMaterialization({0, 1, 2});
    inst->engine = std::make_unique<IvmEngine<I64Ring>>(inst->tree.get(),
                                                        fivm::LiftingMap<I64Ring>{});
    return inst;
  };
  w.shards = args.shards > 0 ? args.shards : 4;
  w.check = [&](const int64_t& got_in, bool first, Result* res) {
    int64_t got = got_in;
    if (args.perturb == "triangle.fivm" && first) got += 1;
    res->Check(got == brute, std::string(first ? "first round: " : "") +
                                 "F-IVM count " + std::to_string(got) +
                                 " == brute-force count " + std::to_string(brute));
  };
  RunEngineWorkload<I64Ring>(args, w, gen_s, &out, [&](Result* l) {
    l->Metric("ivme.apply_ms", ivme_ms, "ms");
  });
  return out;
}

}  // namespace perfbench
