// sweep_dense: the paper's algorithm alone. An in-memory QueryServer over
// 65,536 clustered objects runs two g-distance groups — a stationary hot
// spot and a moving query — with a kNN and a within query each, and takes
// a Poisson new/chdir/terminate stream in E3's middle regime. Every
// kChdirEvery-th update is followed by a Theorem 10 chdir of the moving
// query's trajectory (FutureQueryEngine::ChangeQueryGDistance on that
// group's engine). Single-threaded, so the sweep's counts over the first
// kExactOps operations repeat exactly for one seed.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "obs/flight_recorder.h"
#include "obs/modb_metrics.h"
#include "queries/query_server.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using modb::FutureQueryEngine;
using modb::ObjectId;
using modb::QueryId;
using modb::Status;
using modb::Update;
using modb::Vec;

constexpr size_t kObjects = 65536;
// The stream's mean gap is calibrated per seed so that the two sweeps
// together see about this many support changes per update — E3's middle
// regime (10^2..10^3 per sweep) — whatever the seed's cluster layout.
constexpr double kTargetChangesPerUpdate = 300.0;
constexpr double kTrialGap = 1e-5;
constexpr size_t kTrialUpdates = 1024;
constexpr size_t kStreamLength = 60000;
// One query-trajectory chdir after every kChdirEvery updates.
constexpr size_t kChdirEvery = 256;
// The exact-count block: the first kExactOps operations.
constexpr size_t kExactOps = 1028;

// A stream operation: an update, or a chdir of the moving query.
struct Op {
  bool chdir = false;
  size_t index = 0;  // Into the update stream, or the query's gdists.
};

struct Inputs {
  modb::MovingObjectDatabase mod{2};
  std::vector<Update> stream;
  std::vector<Op> ops;
  Vec hot;
  modb::Trajectory query;                 // The moving query at t = 0.
  std::vector<modb::GDistancePtr> turns;  // Its gdist after each chdir.
  double hot_within = 0.0, moving_within = 0.0;
  double mean_gap = 0.0;
};

// Machine-independent sweep counts over the exact-count block.
struct ExactCounts {
  uint64_t support_changes = 0;
  uint64_t crossings = 0;
  uint64_t events_scheduled = 0;
  uint64_t events_cancelled = 0;
  uint64_t answer_changes = 0;
  size_t queue_peak = 0;

  bool operator==(const ExactCounts&) const = default;
  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "m=%llu crossings=%llu scheduled=%llu cancelled=%llu "
                  "answer_changes=%llu queue_peak=%zu",
                  static_cast<unsigned long long>(support_changes),
                  static_cast<unsigned long long>(crossings),
                  static_cast<unsigned long long>(events_scheduled),
                  static_cast<unsigned long long>(events_cancelled),
                  static_cast<unsigned long long>(answer_changes),
                  queue_peak);
    return buf;
  }
};

// Registry counters read around single calls (relaxed loads, no
// snapshot allocation).
struct CallCounters {
  uint64_t scheduled, cancelled, answer_changes, trace_events;
  static CallCounters Read() {
    const modb::obs::ModbMetrics& m = modb::obs::M();
    return {m.sweep_events_scheduled->Value(),
            m.sweep_events_cancelled->Value(), m.answer_changes->Value(),
            modb::obs::FlightRecorder::Global().recorded()};
  }
  void AddSince(const CallCounters& before, ExactCounts* counts) const {
    counts->events_scheduled += scheduled - before.scheduled;
    counts->events_cancelled += cancelled - before.cancelled;
    counts->answer_changes += answer_changes - before.answer_changes;
  }
};

modb::GDistancePtr Gdist(const modb::Trajectory& query) {
  return std::make_shared<modb::SquaredEuclideanGDistance>(query);
}

modb::GDistancePtr PointGdist(const Vec& p) {
  return Gdist(modb::Trajectory::Stationary(0.0, p));
}

// E3's update stream model — src/workload's RandomUpdateStream: Poisson
// arrivals, chdir/new/terminate weighted 0.8/0.1/0.1, a floor of 4 live
// objects — drawn with the generator's RandomPoint/RandomVelocity but with
// an incrementally kept alive set. RandomUpdateStream rescans the whole
// database per update (MovingObjectDatabase::AliveAt), which at N = 65,536
// takes minutes for a stream this long.
std::vector<Update> PoissonStream(const modb::MovingObjectDatabase& mod,
                                  const modb::RandomModOptions& options,
                                  size_t count, double mean_gap,
                                  uint64_t seed) {
  modb::Rng rng(seed);
  std::vector<ObjectId> alive;
  ObjectId next_oid = 0;
  for (const auto& [oid, trajectory] : mod.objects()) {
    if (!trajectory.terminated()) alive.push_back(oid);
    next_oid = std::max(next_oid, oid + 1);
  }
  std::vector<Update> stream;
  stream.reserve(count);
  double time = mod.last_update_time();
  while (stream.size() < count) {
    time += rng.Exponential(1.0 / mean_gap);
    const double pick = rng.Uniform(0.0, 1.0);
    if (pick < 0.8) {
      const ObjectId target = alive[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alive.size()) - 1))];
      stream.push_back(Update::ChangeDirection(
          target, time,
          modb::RandomVelocity(rng, 2, options.speed_min, options.speed_max)));
    } else if (pick < 0.9 || alive.size() <= 4) {
      stream.push_back(Update::NewObject(
          next_oid, time,
          modb::RandomPoint(rng, 2, options.box_lo, options.box_hi),
          modb::RandomVelocity(rng, 2, options.speed_min, options.speed_max)));
      alive.push_back(next_oid++);
    } else {
      const size_t index = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alive.size()) - 1));
      stream.push_back(Update::TerminateObject(alive[index], time));
      alive[index] = alive.back();
      alive.pop_back();
    }
  }
  return stream;
}

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  modb::RandomModOptions options;
  options.num_objects = kObjects;
  options.seed = seed;
  options.distribution = modb::SpatialDistribution::kClustered;
  in.mod = modb::RandomMod(options);
  std::vector<Vec> points;
  for (const auto& [oid, trajectory] : in.mod.objects()) {
    points.push_back(trajectory.PositionAt(0.0));
  }
  const std::vector<Vec> candidates(points.begin(), points.begin() + 256);
  in.hot = DensestPoint(candidates, points, 25.0);
  in.hot_within = RankThreshold(in.hot, points, 64);
  modb::Rng rng(seed * 31 + 7);
  // The moving query always travels at speed 5; only its headings vary.
  const Vec start = in.hot + Vec{60.0, -60.0};
  in.query = modb::Trajectory::Linear(0.0, start,
                                      modb::RandomVelocity(rng, 2, 5, 5));
  in.moving_within = RankThreshold(start, points, 128);

  // Calibrate the gap on kernel-less copies of both sweeps, over the first
  // kTrialUpdates updates of the stream itself: a stream drawn with another
  // gap makes the same choices at scaled times. Support changes grow about
  // in proportion to the gap, so two proportional steps bring every seed
  // within a few percent of the target: seeds then differ in layout, not
  // in work per update, which the update rate follows.
  in.mean_gap = kTrialGap;
  for (int step = 0; step < 2; ++step) {
    FutureQueryEngine hot(in.mod, PointGdist(in.hot), 0.0);
    FutureQueryEngine moving(in.mod, Gdist(in.query), 0.0);
    hot.Start();
    moving.Start();
    const uint64_t before =
        hot.stats().SupportChanges() + moving.stats().SupportChanges();
    for (const Update& u : PoissonStream(in.mod, options, kTrialUpdates,
                                         in.mean_gap, seed + 1)) {
      if (!hot.ApplyUpdate(u).ok() || !moving.ApplyUpdate(u).ok()) {
        std::abort();
      }
    }
    const double m = static_cast<double>(hot.stats().SupportChanges() +
                                         moving.stats().SupportChanges() -
                                         before) /
                     static_cast<double>(kTrialUpdates);
    in.mean_gap *= kTargetChangesPerUpdate / std::max(m, 1.0);
  }
  in.stream =
      PoissonStream(in.mod, options, kStreamLength, in.mean_gap, seed + 1);
  // Each chdir re-anchors the query at the turn: a one-piece trajectory
  // from the turn on, continuous there, so values at now() are unchanged
  // (Theorem 10's premise). A growing multi-piece query would make every
  // curve build dearer turn by turn and the run would not be stationary.
  modb::Trajectory query = in.query;
  for (size_t u = 0; u < in.stream.size(); ++u) {
    in.ops.push_back({false, u});
    if ((u + 1) % kChdirEvery == 0) {
      const double t = in.stream[u].time;
      query = modb::Trajectory::Linear(t, query.PositionAt(t),
                                       modb::RandomVelocity(rng, 2, 5, 5));
      in.ops.push_back({true, in.turns.size()});
      in.turns.push_back(Gdist(query));
    }
  }
  return in;
}

// The server under test: the two groups, a kNN and a within query each.
struct Server {
  std::unique_ptr<modb::QueryServer> qs;
  QueryId hot_knn = 0, hot_within = 0, moving_knn = 0, moving_within = 0;
  FutureQueryEngine* moving = nullptr;  // The "moving" group's engine.
};

constexpr size_t kHotK = 8;
constexpr size_t kMovingK = 16;

Server BuildServer(const Inputs& in) {
  Server s;
  s.qs = std::make_unique<modb::QueryServer>(in.mod, 0.0);
  const modb::GDistancePtr hot = PointGdist(in.hot);
  s.hot_knn = s.qs->AddKnn("hot", hot, kHotK);
  s.hot_within = s.qs->AddWithin("hot", hot, in.hot_within);
  const modb::GDistancePtr moving = Gdist(in.query);
  s.moving_knn = s.qs->AddKnn("moving", moving, kMovingK);
  s.moving_within = s.qs->AddWithin("moving", moving, in.moving_within);
  s.qs->VisitEngines([&s](const std::string& key, FutureQueryEngine& e) {
    if (key == "moving") s.moving = &e;
  });
  return s;
}

// Runs op `op` on the server; adds its counter deltas to `counts`.
Status RunOp(const Inputs& in, Server& s, const Op& op, ExactCounts* counts,
             uint64_t* trace_events) {
  const CallCounters before = CallCounters::Read();
  Status status;
  if (op.chdir) {
    s.moving->ChangeQueryGDistance(in.turns[op.index]);
  } else {
    status = s.qs->ApplyUpdate(in.stream[op.index]);
  }
  const CallCounters after = CallCounters::Read();
  after.AddSince(before, counts);
  if (trace_events != nullptr) {
    *trace_events += after.trace_events - before.trace_events;
  }
  return status;
}

void FinishCounts(const modb::SweepStats& before,
                  const modb::SweepStats& after, ExactCounts* counts) {
  counts->support_changes = after.SupportChanges() - before.SupportChanges();
  counts->crossings = after.crossings_computed - before.crossings_computed;
  counts->queue_peak = after.max_queue_length;
}

}  // namespace

Result RunSweepDense(const Args& args) {
  Result result;
  const Inputs in = MakeInputs(args.seed);
  std::printf("sweep_dense inputs: mean_gap=%.4g\n", in.mean_gap);
  Phase("inputs");

  // ---- set-up: build the server and start its engines ----
  Server server;
  const double setup_s = MedianSetupSeconds(
      [&] { server = BuildServer(in); }, [&] { server = Server(); });
  Phase("setup");

  // ---- the measured closed loop ----
  std::vector<Sample> writes;
  std::vector<double> write_on_us, write_off_us, chdir_us;
  std::vector<std::pair<size_t, SpanRecord>> traced_calls;  // By update.
  ExactCounts main_exact, main_rest;
  uint64_t trace_events = 0;
  const modb::SweepStats stats0 = server.qs->TotalStats();
  const RegistrySnapshot reg_before = RegistrySnapshot::Take();
  const size_t history0 = server.qs->mod().history().size();
  const double start = NowMicros();
  const double deadline = start + args.seconds * 1e6;
  size_t done = 0, updates = 0, applied = 0;
  double last_time = 0.0, peak_rss_mb = 0.0;
  while (done < in.ops.size() && (done < kExactOps || NowMicros() < deadline)) {
    const Op& op = in.ops[done];
    // Bench tracing wraps the updates; query chdirs are timed bare.
    const bool traced = !op.chdir && SpanLogOn(args.trace, NowMicros() - start);
    Status status;
    const SpanRecord span =
        TimedCall(traced, modb::obs::SpanName::kServerUpdate, [&] {
          status = RunOp(in, server, op,
                         done < kExactOps ? &main_exact : &main_rest,
                         &trace_events);
        });
    const double latency = span.call.length();
    result.ops.Record(status.ok());
    ++done;
    if (done == kExactOps) {
      FinishCounts(stats0, server.qs->TotalStats(), &main_exact);
    }
    if (op.chdir) {
      chdir_us.push_back(latency);
      continue;
    }
    writes.push_back({span.call.end, latency, status.ok() ? 1.0 : 0.0});
    if (traced) traced_calls.push_back({updates, span});
    (traced ? write_on_us : write_off_us).push_back(latency);
    last_time = in.stream[op.index].time;
    ++updates;
    applied += status.ok();
    if (applied == kRssUpdates && status.ok()) peak_rss_mb = PeakRssMb();
  }
  const double wall_us = NowMicros() - start;
  if (applied < kRssUpdates) peak_rss_mb = PeakRssMb();
  const RegistrySnapshot reg_after = RegistrySnapshot::Take();
  Phase("loop");

  // ---- checks: oracle answers at t_end, history length ----
  const double t_end = last_time + 0.01;
  server.qs->AdvanceTo(t_end);
  const modb::MovingObjectDatabase& final_mod = server.qs->mod();
  const modb::GDistancePtr hot = PointGdist(in.hot);
  const modb::GDistancePtr moving =
      chdir_us.empty() ? Gdist(in.query) : in.turns[chdir_us.size() - 1];
  auto check = [&](const std::string& what, const std::string& why) {
    if (!why.empty()) result.Mismatch(what + " vs naive: " + why);
  };
  check("hot knn", CheckKnn(final_mod, *hot, kHotK, t_end,
                            server.qs->Answer(server.hot_knn)));
  check("hot within", CheckWithin(final_mod, *hot, in.hot_within, t_end,
                                  server.qs->Answer(server.hot_within)));
  check("moving knn", CheckKnn(final_mod, *moving, kMovingK, t_end,
                               server.qs->Answer(server.moving_knn)));
  check("moving within",
        CheckWithin(final_mod, *moving, in.moving_within, t_end,
                    server.qs->Answer(server.moving_within)));
  if (final_mod.history().size() != history0 + applied) {
    result.Mismatch("database history does not match applied updates");
  }
  Phase("oracle");

  // ---- exact counts: the first block again on a fresh server ----
  // (In the traced run this replay covers the first half of the loop's
  // operations and doubles as the queries-layer replay; the core replay
  // covers the same half. A replay of the whole loop takes as long as the
  // loop, and two of them would take the run near its time limit.)
  server = Server();
  Server spare = BuildServer(in);
  const size_t replay_n =
      args.trace ? std::max(kExactOps, done / 2) : kExactOps;
  std::vector<Interval> replay_calls;
  ExactCounts spare_exact, spare_rest;
  const modb::SweepStats spare0 = spare.qs->TotalStats();
  for (size_t i = 0; i < replay_n; ++i) {
    const double r0 = NowMicros();
    if (!RunOp(in, spare, in.ops[i],
               i < kExactOps ? &spare_exact : &spare_rest, nullptr)
             .ok()) {
      std::abort();
    }
    if (!in.ops[i].chdir) replay_calls.push_back({r0, NowMicros()});
    if (i + 1 == kExactOps) {
      FinishCounts(spare0, spare.qs->TotalStats(), &spare_exact);
      if (!(spare_exact == main_exact)) {
        result.Mismatch("exact counts differ between two runs of one seed: " +
                        main_exact.ToString() + " vs " +
                        spare_exact.ToString());
      }
    }
  }
  Phase("recount");
  std::printf("exact counts (first %zu operations, seed %llu): %s\n",
              kExactOps, static_cast<unsigned long long>(args.seed),
              main_exact.ToString().c_str());
  PrintLatency("query_chdir", chdir_us);
  std::printf("sweep_dense: updates=%zu chdirs=%zu wall_s=%.3f "
              "error_rate=%.6f\n",
              updates, chdir_us.size(), wall_us * 1e-6,
              result.ops.ErrorRate());

  if (!args.trace) {
    AddEndToEnd(setup_s, writes, start, peak_rss_mb, &result.metrics);
    return result;
  }

  // ---- traced run: kernel-less engines, one per group, one layer down ----
  std::vector<SpanRecord> traced_spans;
  for (const auto& [update, span] : traced_calls) traced_spans.push_back(span);
  PrintSlowest(traced_spans);
  spare = Server();
  FutureQueryEngine hot_engine(in.mod, PointGdist(in.hot), 0.0);
  FutureQueryEngine moving_engine(in.mod, Gdist(in.query), 0.0);
  FutureQueryEngine* engines[] = {&hot_engine, &moving_engine};
  double core_start_s = 0.0;
  for (FutureQueryEngine* e : engines) {
    const double s0 = NowMicros();
    e->Start();
    core_start_s += (NowMicros() - s0) * 1e-6;
  }
  auto total = [&] {
    modb::SweepStats sum;
    for (const FutureQueryEngine* e : engines) {
      sum.swaps += e->stats().swaps;
      sum.inserts += e->stats().inserts;
      sum.erases += e->stats().erases;
      sum.crossings_computed += e->stats().crossings_computed;
      sum.max_queue_length =
          std::max(sum.max_queue_length, e->stats().max_queue_length);
    }
    return sum;
  };
  ExactCounts core_exact;
  std::vector<double> core_apply, queries_self, core_chdir_us;
  double core_us = 0.0, self_total = 0.0, main_total = 0.0;
  const modb::SweepStats core0 = total();
  size_t update_i = 0, next_traced = 0;
  for (size_t i = 0; i < replay_n; ++i) {
    const Op& op = in.ops[i];
    const CallCounters c0 = CallCounters::Read();
    std::vector<Interval> children;
    if (op.chdir) {
      const double e0 = NowMicros();
      moving_engine.ChangeQueryGDistance(in.turns[op.index]);
      core_chdir_us.push_back(NowMicros() - e0);
    } else {
      for (FutureQueryEngine* e : engines) {
        const double e0 = NowMicros();
        if (!e->ApplyUpdate(in.stream[op.index]).ok()) std::abort();
        const double e1 = NowMicros();
        children.push_back({e0, e1});
        core_apply.push_back(e1 - e0);
        core_us += e1 - e0;
      }
    }
    if (i < kExactOps) CallCounters::Read().AddSince(c0, &core_exact);
    if (i + 1 == kExactOps) FinishCounts(core0, total(), &core_exact);
    if (op.chdir) continue;
    const Interval& parent = replay_calls[update_i];
    const double self = SelfTime({parent}, AlignTo(children, parent.start));
    queries_self.push_back(self);
    if (next_traced < traced_calls.size() &&
        traced_calls[next_traced].first == update_i) {
      self_total += self + UnionLength(children);
      main_total += traced_calls[next_traced++].second.call.length();
    }
    ++update_i;
  }
  Phase("core replay");
  const double core_changes_all =
      static_cast<double>(total().SupportChanges() - core0.SupportChanges());
  std::vector<double> queries_apply;
  for (const Interval& c : replay_calls) queries_apply.push_back(c.length());
  // Engine updates in the exact block: every update op, on both engines.
  double block_updates = 0.0;
  for (size_t i = 0; i < kExactOps; ++i) block_updates += !in.ops[i].chdir;
  const double engine_updates = 2.0 * block_updates;
  ResultLine& m = result.metrics;
  for (const char* name :
       {"shard.commit_self_us.p50", "shard.commit_self_us.p99",
        "shard.republish_us_per_cell", "durability.log_us.p50",
        "durability.log_us.p99", "durability.apply_us.p50",
        "durability.apply_us.p99", "durability.replay_us_per_update"}) {
    m.Add(name, 0.0, "us");
  }
  for (const char* name :
       {"shard.publishes_per_commit", "shard.answer_retries_per_read",
        "shard.dispatches_per_commit", "shard.steals_per_commit",
        "durability.fsyncs_per_update"}) {
    m.Add(name, 0.0, "count");
  }
  m.Add("shard.commit_concurrency", 0.0, "ratio");
  m.Add("durability.wal_bytes_per_update", 0.0, "B");
  m.Add("durability.checkpoint_ms", 0.0, "ms");
  m.Add("queries.apply_us", Median(queries_apply), "us");
  m.Add("queries.self_us", Median(queries_self), "us");
  m.Add("queries.answer_changes_per_update",
        static_cast<double>(main_exact.answer_changes) / block_updates,
        "count");
  m.Add("queries.fanout_per_update",
        Ratio(reg_after.Since(reg_before, "modb.server.update_fanout"),
              reg_after.Since(reg_before, "modb.server.updates")),
        "count");
  m.Add("core.apply_us.p50",
        ReportedPercentile(core_apply, 50, "core.apply_us.p50"), "us");
  m.Add("core.apply_us.p99",
        ReportedPercentile(core_apply, 99, "core.apply_us.p99"), "us");
  m.Add("core.us_per_support_change", Ratio(core_us, core_changes_all), "us");
  m.Add("core.query_chdir_us",
        ReportedPercentile(core_chdir_us, 50, "core.query_chdir_us"), "us");
  m.Add("core.start_s", core_start_s, "s");
  m.Add("core.support_changes_per_update",
        static_cast<double>(core_exact.support_changes) / engine_updates,
        "count");
  m.Add("core.crossings_per_update",
        static_cast<double>(core_exact.crossings) / engine_updates, "count");
  m.Add("core.events_scheduled_per_update",
        static_cast<double>(core_exact.events_scheduled) / engine_updates,
        "count");
  m.Add("core.cancel_ratio",
        Ratio(static_cast<double>(core_exact.events_cancelled),
              static_cast<double>(core_exact.events_scheduled)),
        "ratio");
  m.Add("core.queue_peak", static_cast<double>(core_exact.queue_peak),
        "count");
  m.Add("obs.trace_events_per_update",
        Ratio(static_cast<double>(trace_events),
              static_cast<double>(updates)),
        "count");
  m.Add("obs.bench_trace_overhead",
        Ratio(Median(write_on_us), Median(write_off_us)) - 1.0, "ratio");
  m.Add("unattributed_share", 1.0 - Ratio(self_total, main_total), "ratio");
  m.Add("write_p99_us", BlockedWrite(writes, 99), "us");
  m.Add("read_p50_us", 0.0, "us");
  m.Add("read_p99_us", 0.0, "us");
  m.Add("query_chdir_p50_us",
        ReportedPercentile(chdir_us, 50, "query_chdir_p50_us"), "us");
  m.Add("recover_s", 0.0, "s");
  m.Add("disk_bytes_per_update", 0.0, "B");
  m.Add("error_rate", result.ops.ErrorRate(), "ratio");
  return result;
}

}  // namespace perfbench
