// service_churn: the full stack as deployed. The Housing regression
// cofactor is served per postcode (postcode is the free variable, so the
// root view holds one cofactor per postcode) through IngestService with a
// window-mode write-ahead log, periodic checkpoints, a SnapshotServer with
// a background merger, and one paced reader thread. One producer offers a
// sliding-window stream at a fixed rate with blocking admission: the three
// per-postcode dimension relations (Institution, Demographics, Transport)
// stay in the base database, and House, Shop and Restaurant tuples are
// inserted and later deleted, each delete picking a random live tuple, so
// deletes arrive in another order and in other windows than the inserts.
// The run ends with a cold recovery from the run's log directory.
//
// The rate is a constant, never calibrated per run: a calibrated rate
// would give a faster program a harder load, and is itself noisy.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/ivm_engine.h"
#include "src/core/view_tree.h"
#include "src/durability/checkpoint.h"
#include "src/durability/recovery.h"
#include "src/durability/wal.h"
#include "src/exec/delta_batcher.h"
#include "src/exec/parallel_executor.h"
#include "src/exec/thread_pool.h"
#include "src/harness.h"
#include "src/ingest/ingest_service.h"
#include "src/layers.h"
#include "src/ml/cofactor.h"
#include "src/reference.h"
#include "src/serve/snapshot_server.h"
#include "src/util/rng.h"
#include "src/workloads.h"
#include "src/workloads/housing.h"

namespace perfbench {
namespace {

using fivm::IvmEngine;
using fivm::RegressionPayload;
using fivm::RegressionRing;
using fivm::Relation;
using fivm::Tuple;
using fivm::ViewTree;
using Engine = IvmEngine<RegressionRing>;
using Server = fivm::serve::SnapshotServer<RegressionRing>;

/// Fixed load and service configuration (see README.md for the reasons).
struct Config {
  uint64_t postcodes = 1000;
  int scale = 4;           // House/Shop/Restaurant tuples per postcode
  size_t window = 6000;    // live churned tuples
  // The rate leaves the service thread idle most of the time even when the
  // host runs slow: windows are capped at flush_updates, so a service that
  // falls behind cannot catch up, and its backlog (and visibility latency)
  // grows without bound. At 40,000/s it did so in slow periods of the host.
  double rate = 20000;     // offered updates per second
  size_t pace_round = 20;  // offers per pacing wake-up
  // Windows close on size: at the fixed rate a 128-update window fills in
  // 6.4 ms, long before the deadline, so every run has the same windows,
  // the same checkpoints and the same WAL suffix left for recovery to
  // replay. (With deadline-closed windows the suffix length, and with it
  // the recovery work, varied from run to run.)
  size_t flush_updates = 128;
  int flush_deadline_us = 200000;
  size_t checkpoint_every = 300;  // flush windows between checkpoints
  int merge_interval_ms = 2;
  int read_interval_us = 200;
};

struct Op {
  uint32_t tuple;  // index into Input::tuples
  int8_t sign;
};

/// Generated inputs: the churned tuples, the static base, and the stream.
struct Input {
  std::unique_ptr<fivm::workloads::HousingDataset> ds;
  std::vector<std::pair<int, Tuple>> tuples;  // (relation, tuple) pool
  std::vector<uint32_t> initial_window;       // live at the start
  fivm::Database<RegressionRing> base;        // static relations + window
  std::vector<Op> ops;
};

Input Generate(const Config& cfg, uint64_t seed, size_t n_ops) {
  Input in;
  fivm::workloads::HousingConfig hc;
  hc.postcodes = cfg.postcodes;
  hc.scale = cfg.scale;
  hc.seed = seed;
  in.ds = fivm::workloads::HousingDataset::Generate(hc);
  auto& ds = *in.ds;
  ds.query->SetFreeVars(fivm::Schema{ds.postcode});
  in.base = fivm::MakeDatabase<RegressionRing>(*ds.query);
  for (int r : {ds.institution, ds.demographics, ds.transport}) {
    for (const Tuple& t : ds.tuples[r]) in.base[r].Add(t, RegressionRing::One());
  }
  for (int r : {ds.house, ds.shop, ds.restaurant}) {
    for (const Tuple& t : ds.tuples[r]) in.tuples.emplace_back(r, t);
  }
  fivm::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  std::vector<uint32_t> order(in.tuples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  std::vector<uint32_t> live(order.begin(), order.begin() + cfg.window);
  in.initial_window = live;
  for (uint32_t id : live) {
    in.base[in.tuples[id].first].Add(in.tuples[id].second, RegressionRing::One());
  }
  size_t next = cfg.window;
  in.ops.reserve(n_ops);
  while (in.ops.size() + 2 <= n_ops) {
    const uint32_t add = order[next++ % order.size()];
    in.ops.push_back({add, 1});
    live.push_back(add);
    const size_t pick = rng.Uniform(live.size());
    in.ops.push_back({live[pick], -1});
    live[pick] = live.back();
    live.pop_back();
  }
  return in;
}

/// Tree, engine and execution layer over the input's query.
struct Stack {
  explicit Stack(const Input& in) {
    const auto& ds = *in.ds;
    tree = std::make_unique<ViewTree>(ds.query.get(), &ds.vorder);
    tree->ComputeMaterialization({0, 1, 2, 3, 4, 5});
    slots = tree->AssignAggregateSlots();
    engine = std::make_unique<Engine>(
        tree.get(), fivm::ml::RegressionLiftings(*ds.query, slots));
    engine->Initialize(in.base);
    pool = std::make_unique<fivm::exec::ThreadPool>(1);
    executor = std::make_unique<fivm::exec::ParallelExecutor<RegressionRing>>(
        engine.get(), pool.get(),
        fivm::exec::ParallelExecutor<RegressionRing>::Options{.shards = 1});
    batcher = std::make_unique<fivm::exec::DeltaBatcher<RegressionRing>>(
        &engine->plans(), /*capacity=*/0);
  }
  std::unique_ptr<ViewTree> tree;
  std::vector<uint32_t> slots;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<fivm::exec::ThreadPool> pool;
  std::unique_ptr<fivm::exec::ParallelExecutor<RegressionRing>> executor;
  std::unique_ptr<fivm::exec::DeltaBatcher<RegressionRing>> batcher;
};

/// A log directory under the working directory, removed on destruction.
struct TempDir {
  TempDir() {
    std::filesystem::create_directories(".bench_run");
    char tmpl[] = ".bench_run/service-XXXXXX";
    const char* d = ::mkdtemp(tmpl);
    if (d == nullptr) throw std::runtime_error("mkdtemp failed");
    path = d;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    std::filesystem::remove(".bench_run", ec);  // only if empty
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  std::string path;
};

/// Per-component closeness of two stores of regression payloads: counts
/// exactly, every sum and moment within 1e-9 of the largest magnitude that
/// component takes in either store. Keys missing on one side read as zero.
bool StoresClose(const Relation<RegressionRing>& a,
                 const Relation<RegressionRing>& b, uint32_t nslots,
                 std::string* why) {
  const size_t nq = static_cast<size_t>(nslots) * nslots;
  std::vector<double> scale(nslots + nq, 0.0);
  auto note = [&](const Tuple&, const RegressionPayload& p) {
    for (uint32_t i = p.lo(); i < p.hi(); ++i) {
      scale[i] = std::max(scale[i], std::fabs(p.Sum(i)));
      for (uint32_t j = i; j < p.hi(); ++j) {
        double& s = scale[nslots + i * nslots + j];
        s = std::max(s, std::fabs(p.Cofactor(i, j)));
      }
    }
  };
  a.ForEach(note);
  b.ForEach(note);
  bool ok = true;
  auto compare = [&](const Relation<RegressionRing>& x,
                     const Relation<RegressionRing>& y) {
    const RegressionPayload zero;
    x.ForEach([&](const Tuple& k, const RegressionPayload& p) {
      if (!ok) return;
      const RegressionPayload* q = y.Find(k);
      const RegressionPayload& o = q ? *q : zero;
      if (p.count() != o.count()) {
        ok = false;
        *why = "count differs at key " + k.ToString();
        return;
      }
      for (uint32_t i = 0; i < nslots && ok; ++i) {
        if (!Close(p.Sum(i), o.Sum(i), scale[i])) ok = false;
        for (uint32_t j = i; j < nslots && ok; ++j) {
          if (!Close(p.Cofactor(i, j), o.Cofactor(i, j),
                     scale[nslots + i * nslots + j])) {
            ok = false;
          }
        }
      }
      if (!ok && why->empty()) *why = "moment differs at key " + k.ToString();
    });
  };
  compare(a, b);
  compare(b, a);
  return ok;
}

/// One pass of the service under load, and what it measured.
struct PassOut {
  double setup_s = 0, stream_s = 0, cpu_s = 0;
  uint64_t offers = 0;
  std::vector<double> vis_ms, read_us, acquire_us, segments, lag_ms, offer_ns;
  uint64_t reads = 0;
  bool epochs_monotone = true;
  fivm::ingest::IngestStats stats;
  uint64_t made_visible = 0;
  double view_mb = 0, peak_rss_mb = 0, recovery_s = 0, recover_load_ms = 0;
  fivm::durability::RecoveryResult recovery;
  fivm::durability::WalStats wal;
  double ckpt_bytes = 0;
  Result layers;
};

void CheckPass(const Args& args, const Config& cfg, const Input& in,
               const Stack& live, const Server& server, PassOut* p,
               Result* out);

/// Runs the service for `seconds` at the fixed rate (ops truncated to
/// rate * seconds), then stops it, checks it and recovers from its log.
PassOut RunServicePass(const Args& args, const Config& cfg, const Input& in,
                       size_t n_ops, bool traced, Result* out) {
  PassOut p;
  TempDir dir;
  const double t_setup = NowS();
  Stack s(in);
  fivm::serve::MergePolicy policy;
  policy.max_segments = 4;
  policy.max_diff_keys = 4 * cfg.flush_updates;
  Server server(s.engine.get(), policy);
  fivm::durability::WalWriter wal(dir.path, fivm::durability::WalWriter::Options{});
  fivm::durability::Checkpointer<RegressionRing> ckpt(dir.path, s.engine.get(), &wal);
  fivm::ingest::ServiceOptions opts;
  opts.flush_updates = cfg.flush_updates;
  opts.flush_deadline = std::chrono::microseconds(cfg.flush_deadline_us);
  opts.merge_each_flush = false;
  opts.durability = fivm::ingest::DurabilityPolicy::kWindow;
  opts.checkpoint_every_flushes = cfg.checkpoint_every;
  opts.default_queue = {fivm::ingest::AdmissionPolicy::kBlock, 1u << 16};
  fivm::ingest::IngestService<RegressionRing> service(
      s.engine.get(), s.executor.get(), s.batcher.get(), &server, opts);
  service.AttachDurability(&wal, &ckpt);
  p.vis_ms.reserve(static_cast<size_t>(args.seconds * cfg.rate / cfg.flush_updates) + 16);
  service.SetVisibilityProbe([&p](uint64_t ns) { p.vis_ms.push_back(ns / 1e6); });
  server.StartBackgroundMerge(std::chrono::milliseconds(cfg.merge_interval_ms));
  service.Start();
  p.setup_s = NowS() - t_setup;

  const uint64_t pushed0 = CounterValue("batcher.pushed_updates");
  std::atomic<bool> done{false};
  // The paced reader: snapshot acquire + point lookup of a random postcode.
  std::thread reader([&] {
    fivm::util::Rng rng(args.seed + 99);
    RegressionPayload value;
    uint64_t last_seq = 0;
    auto next = Clock::now();
    while (!done.load(std::memory_order_acquire)) {
      next += std::chrono::microseconds(cfg.read_interval_us);
      std::this_thread::sleep_until(next);
      const Tuple key = Tuple::Ints({static_cast<int64_t>(rng.Uniform(cfg.postcodes))});
      const uint64_t t0 = NowNs();
      auto snap = server.Acquire();
      const uint64_t t1 = NowNs();
      snap.Lookup(key, &value);
      const uint64_t t2 = NowNs();
      p.read_us.push_back((t2 - t0) / 1e3);
      if (traced) {
        p.acquire_us.push_back((t1 - t0) / 1e3);
        p.segments.push_back(static_cast<double>(snap.segment_count()));
      }
      if (snap.seq() < last_seq) p.epochs_monotone = false;
      last_seq = snap.seq();
      ++p.reads;
    }
  });

  // The producer: open-loop pacing in rounds of pace_round offers; an offer
  // is due at its scheduled time, and lag is how late the round started.
  const double cpu0 = ProcessCpuS();
  const Clock::time_point t0 = Clock::now();
  const auto period = std::chrono::nanoseconds(
      static_cast<int64_t>(cfg.pace_round * 1e9 / cfg.rate));
  auto due = t0;
  for (size_t i = 0; i < n_ops; ++i) {
    if (i % cfg.pace_round == 0) {
      due += period;
      std::this_thread::sleep_until(due);
      p.lag_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    }
    const Op& op = in.ops[i];
    const auto& [rel, tuple] = in.tuples[op.tuple];
    const RegressionPayload payload =
        op.sign > 0 ? RegressionRing::One() : RegressionRing::Neg(RegressionRing::One());
    // A shed offer is a failed operation (and fails the offers check).
    bool admitted = false;
    if (traced) {
      const uint64_t o0 = NowNs();
      admitted = service.Offer(rel, tuple, payload);
      p.offer_ns.push_back(static_cast<double>(NowNs() - o0));
    } else {
      admitted = service.Offer(rel, tuple, payload);
    }
    if (!admitted) out->failed += 1;
    ++p.offers;
  }
  service.Stop();
  p.stream_s = std::chrono::duration<double>(Clock::now() - t0).count();
  p.cpu_s = ProcessCpuS() - cpu0;
  done.store(true, std::memory_order_release);
  reader.join();
  server.StopBackgroundMerge();
  // The serving phase's peak. The recovery below runs in this process only
  // to check it; a restart runs in a fresh one. Counting it here would add
  // the heap left by the serving threads to the recovery's own memory
  // (the whole WAL segment read at once), which made the peak vary by about
  // 12 MB with allocation timing alone.
  p.peak_rss_mb = PeakRssMb();
  p.stats = service.GetStats();
  p.made_visible = CounterValue("batcher.pushed_updates") - pushed0;
  p.view_mb = s.engine->TotalBytes() / 1e6;
  p.wal = wal.stats();
  {
    auto cks = fivm::durability::ListCheckpoints(dir.path);
    struct stat st{};
    if (!cks.empty() && ::stat(cks.back().path.c_str(), &st) == 0) {
      p.ckpt_bytes = static_cast<double>(st.st_size);
    }
  }

  // Cold recovery from the run's log directory into a fresh stack, and the
  // recovered engine compared with the live one. A traced run times it
  // kTracedRecoveries times, each into a new stack (recovery only reads
  // the directory), and keeps the fastest, the estimate least disturbed by
  // other load. An untraced run, which reports no recovery time, recovers
  // once for the check.
  {
    if (traced) {
      Stack probe(in);
      const double l0 = NowS();
      fivm::durability::LoadNewestCheckpoint(dir.path, probe.engine.get());
      p.recover_load_ms = (NowS() - l0) * 1e3;
    }
    constexpr int kTracedRecoveries = 5;
    std::vector<double> times;
    std::unique_ptr<Stack> rec;
    for (int i = 0; i < (traced ? kTracedRecoveries : 1); ++i) {
      rec.reset();
      rec = std::make_unique<Stack>(in);
      const double r0 = NowS();
      p.recovery = fivm::durability::Recover(dir.path, rec->engine.get(),
                                             rec->batcher.get(), rec->executor.get());
      times.push_back(NowS() - r0);
    }
    p.recovery_s = *std::min_element(times.begin(), times.end());
    bool same = true;
    std::string why;
    const uint32_t nslots = static_cast<uint32_t>(s.slots.size());
    for (size_t i = 0; i < s.tree->nodes().size() && same; ++i) {
      if (!s.tree->node(static_cast<int>(i)).materialized) continue;
      Relation<RegressionRing> live_store = s.engine->store(static_cast<int>(i));
      if (args.perturb == "service.recovery" && i == static_cast<size_t>(s.tree->root())) {
        live_store.Add(Tuple::Ints({0}), RegressionRing::One());
      }
      same = StoresClose(live_store, rec->engine->store(static_cast<int>(i)), nslots, &why);
    }
    out->Check(same, "recovered stores == live stores (" +
                         std::to_string(p.recovery.frames_replayed) +
                         " frames replayed after checkpoint lsn " +
                         std::to_string(p.recovery.checkpoint_lsn) + ") " + why);
  }
  CheckPass(args, cfg, in, s, server, &p, out);

  if (traced) {
    // Ghost keys: stored keys a re-evaluation over the live tuples lacks.
    fivm::Database<RegressionRing> live_db = in.base;
    for (size_t i = 0; i < n_ops; ++i) {
      const auto& [rel, t] = in.tuples[in.ops[i].tuple];
      live_db[rel].Add(t, in.ops[i].sign > 0
                              ? RegressionRing::One()
                              : RegressionRing::Neg(RegressionRing::One()));
    }
    Stack fresh_stack(in);
    fresh_stack.engine->Initialize(live_db);
    Result& l = p.layers;
    l.Metric("store.ghost_keys",
             static_cast<double>(GhostKeys(*s.engine, *fresh_stack.engine)), "count");
    l.Metric("store.fresh_mb", fresh_stack.engine->TotalBytes() / 1e6, "MB");
    AddStoreMetrics(*s.engine, &l);
  }
  return p;
}

/// Independent checks of one pass: the final served snapshot against the
/// star-join reference of the live tuples, the live join count, offers,
/// visibility and reader epochs.
void CheckPass(const Args& args, const Config& cfg, const Input& in,
               const Stack& live, const Server& server, PassOut* p,
               Result* out) {
  const auto& ds = *in.ds;
  const fivm::Query& query = *ds.query;
  // Live and historical tuples per postcode and relation. Static relations
  // enter the history once; churned tuples once per insert and delete.
  const size_t nrel = ds.tuples.size();
  using PerRel = std::vector<std::vector<WeightedTuple>>;
  std::vector<PerRel> hist(cfg.postcodes, PerRel(nrel));
  std::vector<double> live_mult(in.tuples.size(), 0.0);
  for (uint32_t id : in.initial_window) live_mult[id] += 1;
  for (size_t i = 0; i < p->offers; ++i) live_mult[in.ops[i].tuple] += in.ops[i].sign;
  std::vector<PerRel> live_rel(cfg.postcodes, PerRel(nrel));
  for (int r : {ds.institution, ds.demographics, ds.transport}) {
    for (const Tuple& t : ds.tuples[r]) {
      const size_t pc = static_cast<size_t>(t[0].AsInt());
      live_rel[pc][r].push_back({&t, 1.0});
      hist[pc][r].push_back({&t, 1.0});
    }
  }
  for (uint32_t id : in.initial_window) {
    const auto& [r, t] = in.tuples[id];
    hist[static_cast<size_t>(t[0].AsInt())][r].push_back({&t, 1.0});
  }
  for (size_t i = 0; i < p->offers; ++i) {
    const auto& [r, t] = in.tuples[in.ops[i].tuple];
    hist[static_cast<size_t>(t[0].AsInt())][r].push_back({&t, 1.0});
  }
  for (size_t id = 0; id < in.tuples.size(); ++id) {
    if (live_mult[id] == 0) continue;
    const auto& [r, t] = in.tuples[id];
    live_rel[static_cast<size_t>(t[0].AsInt())][r].push_back({&t, live_mult[id]});
  }

  StarLayout layout;
  layout.vars = query.catalog().size();
  layout.key_var = -1;  // postcode is the group-by key
  for (int r = 0; r < query.relation_count(); ++r) {
    std::vector<int> cols;
    for (fivm::VarId v : query.relation(r).schema) cols.push_back(static_cast<int>(v));
    layout.col_var.push_back(cols);
  }
  std::vector<int> vars;
  for (fivm::VarId v : query.BoundVars()) vars.push_back(static_cast<int>(v));

  auto snap = server.Acquire();
  double ref_count = 0, served_count = 0;
  size_t mismatched = 0;
  std::string first_why;
  RegressionPayload got;
  for (size_t pc = 0; pc < cfg.postcodes; ++pc) {
    Moments ref(layout.vars), gross(layout.vars);
    AddStarKeyMoments(layout, static_cast<double>(pc), live_rel[pc], false, &ref);
    AddStarKeyMoments(layout, static_cast<double>(pc), hist[pc], true, &gross);
    ref_count += ref.count;
    if (!snap.Lookup(Tuple::Ints({static_cast<int64_t>(pc)}), &got)) got = RegressionPayload();
    if (args.perturb == "service.snapshot" && ref.count > 0 && mismatched == 0 &&
        first_why.empty()) {
      got = fivm::Add(got, RegressionPayload::Lift(live.slots[vars[0]], 1.0));
      got = fivm::Add(got, RegressionRing::Neg(RegressionRing::One()));
    }
    std::string why;
    if (!MatchesMoments(got, ref, gross, vars, live.slots, &why)) {
      if (mismatched++ == 0) first_why = "postcode " + std::to_string(pc) + ": " + why;
    }
  }
  snap.ForEach([&](const Tuple&, const RegressionPayload& v) { served_count += v.count(); });
  if (args.perturb == "service.count") served_count += 1;
  out->Check(mismatched == 0,
             "served snapshot == star-join reference of the live window for all " +
                 std::to_string(cfg.postcodes) + " postcodes " + first_why);
  out->Check(served_count == ref_count,
             "served join count " + std::to_string(static_cast<int64_t>(served_count)) +
                 " == live join count " + std::to_string(static_cast<int64_t>(ref_count)));
  uint64_t admitted = p->stats.admitted;
  if (args.perturb == "service.offers") admitted -= 1;
  out->Check(p->offers == admitted && admitted == p->made_visible &&
                 p->stats.failed_flushes == 0 && p->stats.publish_failures == 0 &&
                 p->stats.wal_failed_windows == 0,
             "offered " + std::to_string(p->offers) + " == admitted " +
                 std::to_string(admitted) + " == made visible " +
                 std::to_string(p->made_visible));
  bool monotone = p->epochs_monotone;
  if (args.perturb == "service.epochs") monotone = false;
  out->Check(monotone, "reader epochs never decrease over " +
                           std::to_string(p->reads) + " reads");
  out->attempted += p->offers + p->reads;
}

/// The second, synchronous pass of a traced run: the same stream through
/// the public calls IngestService makes, in its order, one span per call:
/// WAL append + batcher push per update; per window of flush_updates
/// updates WAL seal (group fsync), batcher flush, ApplyBatch, Publish,
/// MergeStep; WriteCheckpoint every checkpoint_every windows.
void RunStagePass(const Config& cfg, const Input& in, size_t n_ops, Result* l) {
  TempDir dir;
  Stack s(in);
  fivm::serve::MergePolicy policy;
  policy.max_segments = 4;
  policy.max_diff_keys = 4 * cfg.flush_updates;
  Server server(s.engine.get(), policy);
  fivm::durability::WalWriter wal(dir.path, fivm::durability::WalWriter::Options{});
  fivm::durability::Checkpointer<RegressionRing> ckpt(dir.path, s.engine.get(), &wal);
  Spans sp(true);
  size_t windows = 0;
  for (size_t i = 0; i < n_ops; i += cfg.flush_updates) {
    const size_t end = std::min(n_ops, i + cfg.flush_updates);
    for (size_t j = i; j < end; ++j) {
      const auto& [rel, t] = in.tuples[in.ops[j].tuple];
      const RegressionPayload payload = in.ops[j].sign > 0
          ? RegressionRing::One() : RegressionRing::Neg(RegressionRing::One());
      Span(&sp, "wal.append", [&] { wal.Append<RegressionRing>(rel, t, payload); });
      Span(&sp, "batcher.push", [&] { s.batcher->Push(rel, t, payload); });
    }
    Span(&sp, "wal.seal", [&] { wal.Seal(/*sync=*/true); });
    std::vector<fivm::exec::DeltaBatcher<RegressionRing>::Batch> batches;
    Span(&sp, "batcher.flush", [&] { batches = s.batcher->Flush(); });
    for (auto& b : batches) {
      Span(&sp, "exec.apply_batch", [&] {
        s.executor->ApplyBatch(b.relation, std::move(b.delta));
      });
    }
    Span(&sp, "serve.publish", [&] { server.Publish(); });
    Span(&sp, "serve.merge_step", [&] { server.MergeStep(); });
    if (++windows % cfg.checkpoint_every == 0) ckpt.WriteCheckpoint();
  }
  const double updates = static_cast<double>(n_ops);
  const double w = static_cast<double>(std::max<size_t>(1, windows));
  l->Metric("batcher.push_ns", sp.TotalMs("batcher.push") * 1e6 / updates, "ns");
  l->Metric("wal.append_ns", sp.TotalMs("wal.append") * 1e6 / updates, "ns");
  l->Metric("wal.seal_ms", sp.TotalMs("wal.seal") / w, "ms");
  l->Metric("batcher.flush_ms", sp.TotalMs("batcher.flush") / w, "ms");
  l->Metric("exec.apply_batch_ms", sp.TotalMs("exec.apply_batch") / w, "ms");
  l->Metric("serve.publish_us", sp.TotalMs("serve.publish") * 1e3 / w, "us");
  l->Metric("serve.merge_step_ms", sp.TotalMs("serve.merge_step") / w, "ms");
  l->Metric("trace.stage_windows", w, "count");
}

}  // namespace

Result RunServiceChurn(const Args& args) {
  Result out;
  Config cfg;
  if (args.small) {
    cfg.postcodes = 60;
    cfg.window = 300;
    cfg.checkpoint_every = 20;
  }
  const double g0 = NowS();
  const size_t n_ops = static_cast<size_t>(cfg.rate * args.seconds) & ~size_t{1};
  Input in = Generate(cfg, args.seed, n_ops);
  const double gen_s = NowS() - g0;
  std::printf("input: housing postcodes=%llu scale=%d churned_pool=%zu window=%zu "
              "rate=%.0f/s offers=%zu flush=%zu deadline_us=%d ckpt_every=%zu\n",
              static_cast<unsigned long long>(cfg.postcodes), cfg.scale,
              in.tuples.size(), cfg.window, cfg.rate, n_ops, cfg.flush_updates,
              cfg.flush_deadline_us, cfg.checkpoint_every);

  if (!args.trace) {
    PassOut p = RunServicePass(args, cfg, in, n_ops, false, &out);
    out.Metric("updates_per_s", p.offers / p.stream_s, "1/s");
    out.Metric("latency_ms_p50", Percentile(p.vis_ms, 50), "ms");
    out.Metric("cpu_us_per_update", p.cpu_s * 1e6 / p.offers, "us");
    out.Metric("view_mb", p.view_mb, "MB");
    out.Metric("peak_rss_mb", p.peak_rss_mb, "MB");
    out.Metric("setup_s", p.setup_s, "s");
    std::printf("service: flushes=%zu reads=%llu blocks=%llu\n", p.vis_ms.size(),
                static_cast<unsigned long long>(p.reads),
                static_cast<unsigned long long>(p.stats.blocks));
    return out;
  }

  // Traced: an untraced half, a traced half on the same stream prefix, and
  // the synchronous stage pass.
  const size_t half = (n_ops / 2) & ~size_t{1};
  Args half_args = args;
  half_args.seconds = args.seconds / 2;
  auto& reg = fivm::obs::MetricRegistry::Default();
  PassOut plain = RunServicePass(half_args, cfg, in, half, false, &out);
  reg.ResetAll();
  PassOut p = RunServicePass(half_args, cfg, in, half, true, &out);
  Result& l = out;
  for (const auto& [name, vu] : p.layers.metrics) l.Metric(name, vu.first, vu.second);
  const auto& st = p.stats;
  l.Metric("ingest.offer_ns_p50", Percentile(p.offer_ns, 50), "ns");
  l.Metric("ingest.offer_ns_p99", Percentile(p.offer_ns, 99), "ns");
  l.Metric("ingest.size_flushes", static_cast<double>(st.size_flushes), "count");
  l.Metric("ingest.deadline_flushes", static_cast<double>(st.deadline_flushes), "count");
  l.Metric("ingest.blocks", static_cast<double>(st.blocks), "count");
  l.Metric("ingest.checkpoints", static_cast<double>(st.checkpoints), "count");
  l.Metric("generator.lag_ms", Percentile(p.lag_ms, 99), "ms");
  const double pushed = static_cast<double>(CounterValue("batcher.pushed_updates"));
  l.Metric("batcher.cancelled_per_pushed",
           pushed > 0 ? CounterValue("batcher.cancelled_keys") / pushed : 0, "ratio");
  l.Metric("wal.bytes", static_cast<double>(p.wal.bytes_written), "bytes");
  l.Metric("wal.fsyncs", static_cast<double>(p.wal.fsyncs), "count");
  const auto ck = HistogramOf("durability.checkpoint_ns");
  l.Metric("ckpt.write_ms", ck.count ? ck.sum / 1e6 / ck.count : 0.0, "ms");
  l.Metric("ckpt.bytes", p.ckpt_bytes, "bytes");
  l.Metric("recovery.load_ms", p.recover_load_ms, "ms");
  l.Metric("recovery.replay_ms", std::max(0.0, p.recovery_s * 1e3 - p.recover_load_ms), "ms");
  l.Metric("recovery.frames", static_cast<double>(p.recovery.frames_replayed), "count");
  const auto merge = HistogramOf("serve.merge_ns");
  l.Metric("serve.merge_ms", merge.count ? merge.sum / 1e6 / merge.count : 0.0, "ms");
  l.Metric("serve.merges", static_cast<double>(merge.count), "count");
  l.Metric("serve.segments_p50", Percentile(p.segments, 50), "count");
  l.Metric("serve.acquire_us", Percentile(p.acquire_us, 50), "us");
  l.Metric("serve.read_us", Percentile(p.read_us, 50), "us");
  l.Metric("ingest.visibility_ms_p99", Percentile(p.vis_ms, 99), "ms");
  const double reads = static_cast<double>(CounterValue("serve.reads"));
  l.Metric("serve.diff_hit_ratio",
           reads > 0 ? CounterValue("serve.diff_hits") / reads : 0.0, "ratio");
  l.Metric("trace.overhead_pct",
           100.0 * ((p.cpu_s / p.offers) / (plain.cpu_s / plain.offers) - 1.0), "%");
  RunStagePass(cfg, in, half, &l);
  l.Metric("workloads.gen_s", gen_s, "s");
  return out;
}

}  // namespace perfbench
