// fleet_live: closed-loop gateways against a durable ShardedQueryServer
// (S = 4, fsync on every record). The traced run
// replays the acknowledged commits one layer at a time — sharded Commit,
// per-shard LogShardBatch/ApplyLoggedBatch, QueryServer::ApplyUpdate, a
// kernel-less FutureQueryEngine::ApplyUpdate — so each layer's self time
// is its call minus the calls it makes one layer down.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "obs/flight_recorder.h"
#include "shard/sharded_server.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using modb::DurableQueryServer;
using modb::ObjectId;
using modb::QueryId;
using modb::ShardedQueryServer;
using modb::Status;
using modb::Update;
using modb::Vec;

constexpr size_t kShards = 4;
constexpr size_t kVehicles = 4096;
// fleet_live's vehicles start with this many turns of history. Publishing
// an answer rebuilds each member's curve over its whole trajectory, so
// the cost per commit grows with turns per vehicle; starting from a
// history makes the turns a run adds a small share, keeping runs of
// different lengths comparable.
constexpr size_t kFleetTurns = 4;
// fleet_live's mean clock step per commit: small enough that vehicles
// barely move during a run (answers keep their size), large enough that
// every update commits real support changes.
constexpr double kFleetGap = 2e-4;
// A fleet_live gateway's CPU time between an ack and its next commit. It
// is longer than a blocked thread takes to wake, so when one gateway's
// commit releases the epoch lock, the other gateway, already waiting,
// takes it next. With no pause the releasing gateway can take the lock
// straight back, and whether it does depends on how fast this host
// wakes threads: two writers then alternate in one run and starve one
// another in the next, and runs disagree by a third.
constexpr double kPrepareUs = 300.0;

struct QuerySpec {
  bool knn = true;
  size_t k = 0;
  double threshold = 0.0;
};

// One workload on the sharded server. Inputs are a pure function of the
// seed: next_batch(writer) never looks at the server.
struct Workload {
  std::string name;
  std::vector<Update> seed;  // The fleet: new() at t = 0, then its turns.
  Vec poi;                   // The standing queries' point of interest.
  std::vector<QuerySpec> queries;
  size_t writers = 0;
  std::function<std::vector<Update>(size_t writer)> next_batch;
  // The time the checks advance the server to, after the writers stop.
  std::function<double()> end_time;
};

struct Op {
  std::vector<Update> updates;
  SpanRecord span;  // Main-run Commit call, on NowMicros().
  bool acked = false;
  bool traced = false;  // Issued in a bench-tracing-on phase.
};

modb::ShardedServerOptions ServerOptions() {
  modb::ShardedServerOptions options;
  options.shards = kShards;
  options.durability.dim = 2;
  options.durability.initial_time = 0.0;
  options.durability.auto_checkpoint = false;
  options.durability.wal.sync = modb::SyncPolicy::kEveryRecord;
  // One pool worker: the closed-loop gateways, the reader and the pool
  // then fit the four cores instead of oversubscribing them.
  options.threads = 1;
  return options;
}

modb::Trajectory PoiTrajectory(const Vec& poi) {
  return modb::Trajectory::Stationary(0.0, poi);
}

modb::GDistancePtr PoiGdist(const Vec& poi) {
  return std::make_shared<modb::SquaredEuclideanGDistance>(
      PoiTrajectory(poi));
}

// The clustered fleet (Gaussian hot spots) as new() updates at t = 0,
// followed by kFleetTurns rounds of chdirs for every vehicle at t = 0.001,
// 0.002, ..., and the vehicles' start positions.
std::vector<Update> Fleet(uint64_t seed, std::vector<Vec>* positions) {
  modb::RandomModOptions options;
  options.num_objects = kVehicles;
  options.seed = seed;
  options.distribution = modb::SpatialDistribution::kClustered;
  const modb::MovingObjectDatabase mod = modb::RandomMod(options);
  std::vector<Update> updates;
  for (const auto& [oid, trajectory] : mod.objects()) {
    const modb::LinearPiece& piece = trajectory.pieces().front();
    updates.push_back(Update::NewObject(oid, 0.0, piece.PositionAt(0.0),
                                        piece.velocity));
    positions->push_back(piece.PositionAt(0.0));
  }
  modb::Rng rng(seed * 7);
  for (size_t r = 1; r <= kFleetTurns; ++r) {
    for (const auto& [oid, trajectory] : mod.objects()) {
      updates.push_back(Update::ChangeDirection(
          oid, 0.001 * static_cast<double>(r),
          modb::RandomVelocity(rng, 2, options.speed_min, options.speed_max)));
    }
  }
  return updates;
}

std::unique_ptr<ShardedQueryServer> OpenServer(const std::string& dir) {
  auto opened = ShardedQueryServer::Open(dir, ServerOptions());
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: open %s: %s\n", dir.c_str(),
                 opened.status().ToString().c_str());
    std::abort();
  }
  return std::move(*opened);
}

// Open a fresh directory, seed the fleet, register the standing queries.
std::unique_ptr<ShardedQueryServer> SetUp(const Workload& w,
                                          const std::string& dir,
                                          std::vector<QueryId>* ids) {
  RemoveDir(dir);
  std::unique_ptr<ShardedQueryServer> db = OpenServer(dir);
  const Status seeded = db->Commit(w.seed);
  if (!seeded.ok()) {
    std::fprintf(stderr, "perfbench: seed: %s\n", seeded.ToString().c_str());
    std::abort();
  }
  ids->clear();
  for (const QuerySpec& q : w.queries) {
    auto id = q.knn ? db->AddKnn("poi", PoiTrajectory(w.poi), q.k)
                    : db->AddWithin("poi", PoiTrajectory(w.poi), q.threshold);
    if (!id.ok()) {
      std::fprintf(stderr, "perfbench: register: %s\n",
                   id.status().ToString().c_str());
      std::abort();
    }
    ids->push_back(*id);
  }
  return db;
}

// Every shard's objects as one database (the oracle's input).
modb::MovingObjectDatabase UnionMod(const ShardedQueryServer& db) {
  double tau = 0.0;
  for (size_t s = 0; s < db.shard_count(); ++s) {
    tau = std::max(tau, db.shard(s).server().mod().last_update_time());
  }
  modb::MovingObjectDatabase all(2, tau);
  for (size_t s = 0; s < db.shard_count(); ++s) {
    for (const auto& [oid, trajectory] :
         db.shard(s).server().mod().objects()) {
      const Status restored = all.Restore(oid, trajectory);
      if (!restored.ok()) std::abort();
    }
  }
  return all;
}

// What a reopen must reproduce: every standing answer, seq() and the MOD.
struct Observed {
  std::vector<std::set<ObjectId>> answers;
  uint64_t seq = 0;
  std::map<ObjectId, modb::Trajectory> objects;
};

Observed Observe(const ShardedQueryServer& db,
                 const std::vector<QueryId>& ids) {
  Observed o;
  for (QueryId id : ids) o.answers.push_back(db.Answer(id));
  o.seq = db.seq();
  o.objects = UnionMod(db).objects();
  return o;
}

// ---- the layer-down replays (traced run) -----------------------------

// Per-op spans of each layer, indexed in replay order.
struct LayerSpans {
  std::vector<Interval> shard;                          // Commit.
  std::vector<std::vector<Interval>> durability;        // Log + apply.
  std::vector<std::map<size_t, Interval>> apply_phase;  // By shard.
  std::vector<std::map<size_t, std::vector<Interval>>> queries;
  std::vector<std::map<size_t, std::vector<Interval>>> core;
  std::vector<double> log_us, apply_us;  // Per participant call.
  double core_start_s = 0.0;
  uint64_t core_updates = 0, support_changes = 0, crossings = 0;
  double events_scheduled = 0, events_cancelled = 0;
  size_t queue_peak = 0;
  double core_us = 0.0;
};

std::vector<std::vector<Update>> ByShard(const std::vector<Update>& batch) {
  std::vector<std::vector<Update>> slices(kShards);
  for (const Update& u : batch) {
    slices[ShardedQueryServer::ShardOf(u.oid, kShards)].push_back(u);
  }
  return slices;
}

// Runs fn(p) for every participant, the first on this thread and the
// rest on their own threads, as the sharded commit fans out on its pool.
void FanOut(const std::vector<uint32_t>& participants,
            const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  for (size_t i = 1; i < participants.size(); ++i) {
    threads.emplace_back(fn, static_cast<size_t>(participants[i]));
  }
  if (!participants.empty()) fn(participants[0]);
  for (std::thread& t : threads) t.join();
}

void ReplayShardLayer(const Workload& w, const std::vector<Op*>& ops,
                      const std::string& dir, LayerSpans* out) {
  std::vector<QueryId> ids;
  std::unique_ptr<ShardedQueryServer> db = SetUp(w, dir, &ids);
  for (const Op* op : ops) {
    const double start = NowMicros();
    const Status s = db->Commit(op->updates);
    out->shard.push_back({start, NowMicros()});
    if (!s.ok()) std::abort();
  }
  db.reset();
  RemoveDir(dir);
}

void ReplayDurabilityLayer(const Workload& w, const std::vector<Op*>& ops,
                           const std::string& dir, LayerSpans* out) {
  RemoveDir(dir);
  modb::DurabilityOptions options = ServerOptions().durability;
  std::vector<std::unique_ptr<DurableQueryServer>> shards;
  for (size_t s = 0; s < kShards; ++s) {
    auto opened =
        DurableQueryServer::Open(dir + "/shard-" + std::to_string(s), options);
    if (!opened.ok()) std::abort();
    shards.push_back(std::move(*opened));
  }
  uint64_t epoch = 0;
  auto commit = [&](const std::vector<Update>& batch, size_t op_index,
                    bool record) {
    const std::vector<std::vector<Update>> slices = ByShard(batch);
    std::vector<uint32_t> participants;
    for (size_t s = 0; s < kShards; ++s) {
      if (!slices[s].empty()) participants.push_back(s);
    }
    ++epoch;
    std::vector<Interval> log(kShards), apply(kShards);
    std::vector<Status> logged(kShards);
    FanOut(participants, [&](size_t p) {
      const double start = NowMicros();
      logged[p] = shards[p]->LogShardBatch(epoch, participants, slices[p]);
      log[p] = {start, NowMicros()};
    });
    FanOut(participants, [&](size_t p) {
      const double start = NowMicros();
      shards[p]->ApplyLoggedBatch(slices[p], nullptr);
      apply[p] = {start, NowMicros()};
    });
    for (uint32_t p : participants) {
      if (!logged[p].ok()) std::abort();
      if (!record) continue;
      out->durability[op_index].push_back(log[p]);
      out->durability[op_index].push_back(apply[p]);
      out->apply_phase[op_index][p] = apply[p];
      out->log_us.push_back(log[p].length());
      out->apply_us.push_back(apply[p].length());
    }
  };
  commit(w.seed, 0, false);
  for (size_t s = 0; s < kShards; ++s) {
    for (const QuerySpec& q : w.queries) {
      auto id = q.knn
                    ? shards[s]->AddKnn("poi", PoiTrajectory(w.poi), q.k)
                    : shards[s]->AddWithin("poi", PoiTrajectory(w.poi),
                                           q.threshold);
      if (!id.ok()) std::abort();
    }
  }
  out->durability.assign(ops.size(), {});
  out->apply_phase.assign(ops.size(), {});
  for (size_t i = 0; i < ops.size(); ++i) commit(ops[i]->updates, i, true);
  shards.clear();
  RemoveDir(dir);
}

// The seed's objects that live on shard s, as that shard's database.
modb::MovingObjectDatabase ShardSeed(const Workload& w, size_t s) {
  modb::MovingObjectDatabase mod(2, 0.0);
  for (const Update& u : w.seed) {
    if (ShardedQueryServer::ShardOf(u.oid, kShards) != s) continue;
    if (!mod.Apply(u).ok()) std::abort();
  }
  return mod;
}

void ReplayQueriesLayer(const Workload& w, const std::vector<Op*>& ops,
                        LayerSpans* out) {
  const modb::GDistancePtr gdist = PoiGdist(w.poi);
  std::vector<std::unique_ptr<modb::QueryServer>> servers;
  for (size_t s = 0; s < kShards; ++s) {
    modb::MovingObjectDatabase mod = ShardSeed(w, s);
    const double tau = mod.last_update_time();
    servers.push_back(
        std::make_unique<modb::QueryServer>(std::move(mod), tau));
    for (const QuerySpec& q : w.queries) {
      if (q.knn) {
        servers[s]->AddKnn("poi", gdist, q.k);
      } else {
        servers[s]->AddWithin("poi", gdist, q.threshold);
      }
    }
  }
  out->queries.assign(ops.size(), {});
  for (size_t i = 0; i < ops.size(); ++i) {
    for (const Update& u : ops[i]->updates) {
      const size_t s = ShardedQueryServer::ShardOf(u.oid, kShards);
      const double start = NowMicros();
      const Status applied = servers[s]->ApplyUpdate(u);
      out->queries[i][s].push_back({start, NowMicros()});
      if (!applied.ok()) std::abort();
    }
  }
}

// Kernel-less engines, one per shard (each shard's QueryServer runs one
// shared sweep for the single "poi" group). No standing query, no sweep.
void ReplayCoreLayer(const Workload& w, const std::vector<Op*>& ops,
                     LayerSpans* out) {
  out->core.assign(ops.size(), {});
  std::vector<std::unique_ptr<modb::FutureQueryEngine>> engines;
  for (size_t s = 0; s < kShards; ++s) {
    modb::MovingObjectDatabase mod = ShardSeed(w, s);
    const double tau = mod.last_update_time();
    engines.push_back(std::make_unique<modb::FutureQueryEngine>(
        std::move(mod), PoiGdist(w.poi), tau));
    const double start = NowMicros();
    engines[s]->Start();
    out->core_start_s += (NowMicros() - start) * 1e-6;
  }
  auto total = [&] {
    modb::SweepStats sum;
    for (const auto& e : engines) {
      sum.swaps += e->stats().swaps;
      sum.inserts += e->stats().inserts;
      sum.erases += e->stats().erases;
      sum.crossings_computed += e->stats().crossings_computed;
    }
    return sum;
  };
  const modb::SweepStats before = total();
  const RegistrySnapshot reg_before = RegistrySnapshot::Take();
  for (size_t i = 0; i < ops.size(); ++i) {
    for (const Update& u : ops[i]->updates) {
      const size_t s = ShardedQueryServer::ShardOf(u.oid, kShards);
      const double start = NowMicros();
      const Status applied = engines[s]->ApplyUpdate(u);
      const double end = NowMicros();
      out->core[i][s].push_back({start, end});
      out->core_us += end - start;
      ++out->core_updates;
      if (!applied.ok()) std::abort();
    }
  }
  const modb::SweepStats after = total();
  const RegistrySnapshot reg_after = RegistrySnapshot::Take();
  out->support_changes = after.SupportChanges() - before.SupportChanges();
  out->crossings = after.crossings_computed - before.crossings_computed;
  out->events_scheduled =
      reg_after.Since(reg_before, "modb.sweep.events_scheduled");
  out->events_cancelled =
      reg_after.Since(reg_before, "modb.sweep.events_cancelled");
  for (const auto& e : engines) {
    out->queue_peak = std::max(out->queue_peak, e->stats().max_queue_length);
  }
}

// ---- the run -----------------------------------------------------------

Result Run(const Workload& w, const Args& args) {
  Result result;
  const std::string dir = args.work_dir + "/db";
  std::vector<QueryId> ids;
  std::unique_ptr<ShardedQueryServer> db;
  const double setup_s = MedianSetupSeconds(
      [&] { db = SetUp(w, dir, &ids); },
      [&] {
        db.reset();
        RemoveDir(dir);
      });
  Phase("setup");
  const uint64_t bytes_after_setup = DirBytes(dir);
  const uint64_t seq_after_setup = db->seq();

  // Closed loop: each gateway waits for its durable ack, then spends
  // kPrepareUs of CPU before it sends the next batch; the reader polls
  // merged answers with a think time.
  std::vector<std::vector<Op>> ops(w.writers);
  std::vector<double> read_us;
  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> acked_so_far{0};
  // Written by the gateway whose commit acks update kRssUpdates.
  double peak_rss_mb = 0.0;
  const RegistrySnapshot reg_before = RegistrySnapshot::Take();
  const uint64_t trace_before = modb::obs::FlightRecorder::Global().recorded();
  const double start = NowMicros();
  const double deadline = start + args.seconds * 1e6;
  std::vector<std::thread> threads;
  for (size_t wi = 0; wi < w.writers; ++wi) {
    threads.emplace_back([&, wi] {
      std::vector<Op>& mine = ops[wi];
      mine.reserve(1 << 16);
      std::vector<Status> statuses;
      while (NowMicros() < deadline) {
        Op op;
        op.updates = w.next_batch(wi);
        op.traced = SpanLogOn(args.trace, NowMicros() - start);
        Status committed;
        op.span = TimedCall(op.traced, modb::obs::SpanName::kCommitBatch, [&] {
          committed = db->Commit(op.updates, &statuses);
        });
        op.acked = committed.ok() &&
                   std::all_of(statuses.begin(), statuses.end(),
                               [](const Status& s) { return s.ok(); });
        if (op.acked) {
          const uint64_t n = op.updates.size();
          const uint64_t before = acked_so_far.fetch_add(n);
          if (before < kRssUpdates && before + n >= kRssUpdates) {
            peak_rss_mb = PeakRssMb();
          }
        }
        mine.push_back(std::move(op));
        // Preparing the next report takes the gateway a little CPU time.
        // Spent spinning, not sleeping, so its core never idles.
        const double prepared = NowMicros() + kPrepareUs;
        while (NowMicros() < prepared) {
        }
      }
    });
  }
  threads.emplace_back([&] {
    size_t i = 0;
    while (!writers_done.load(std::memory_order_relaxed)) {
      const double r0 = NowMicros();
      const std::set<ObjectId> answer = db->Answer(ids[i % ids.size()]);
      read_us.push_back(NowMicros() - r0);
      ++i;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  for (size_t wi = 0; wi < w.writers; ++wi) threads[wi].join();
  const double wall_us = NowMicros() - start;
  if (acked_so_far.load() < kRssUpdates) peak_rss_mb = PeakRssMb();
  writers_done.store(true);
  threads.back().join();
  const RegistrySnapshot reg_after = RegistrySnapshot::Take();
  const uint64_t recorded =
      modb::obs::FlightRecorder::Global().recorded() - trace_before;

  // Tally: every update of a refused or failed commit is a failure.
  std::vector<Sample> writes;
  std::vector<double> write_on_us, write_off_us;
  std::vector<Op*> acked_ops;
  uint64_t acked_updates = 0, commits = 0, bench_spans = 0;
  for (std::vector<Op>& mine : ops) {
    for (Op& op : mine) {
      ++commits;
      bench_spans += op.traced;
      for (size_t u = 0; u < op.updates.size(); ++u) {
        result.ops.Record(op.acked);
      }
      const Interval& call = op.span.call;
      writes.push_back(
          {call.end, call.length(),
           op.acked ? static_cast<double>(op.updates.size()) : 0.0});
      (op.traced ? write_on_us : write_off_us).push_back(call.length());
      if (op.acked) {
        acked_updates += op.updates.size();
        acked_ops.push_back(&op);
      }
    }
  }
  // The flight-recorder records the server made, without the bench's own
  // root spans.
  const uint64_t trace_events = recorded - bench_spans;
  for (size_t i = 0; i < read_us.size(); ++i) result.ops.Record(true);
  // Replays must see each shard's updates in commit order. Writers own
  // disjoint vehicles, so ordering by call start keeps every shard's
  // sequence intact.
  std::sort(acked_ops.begin(), acked_ops.end(), [](const Op* a, const Op* b) {
    return a->span.call.start < b->span.call.start;
  });

  Phase("loop");
  // ---- checks: oracle answers, seq, then reopen ----
  const double t_end = w.end_time();
  db->AdvanceTo(t_end);
  double republish_us_per_cell = 0.0;
  {
    const RegistrySnapshot p0 = RegistrySnapshot::Take();
    const double r0 = NowMicros();
    for (int i = 0; i < 3; ++i) db->AdvanceTo(db->now());
    const double r1 = NowMicros();
    const double cells =
        RegistrySnapshot::Take().Since(p0, "modb.shard.publishes");
    republish_us_per_cell = Ratio(r1 - r0, cells);
  }
  const modb::MovingObjectDatabase final_mod = UnionMod(*db);
  const modb::GDistancePtr gdist = PoiGdist(w.poi);
  for (size_t q = 0; q < ids.size(); ++q) {
    const QuerySpec& spec = w.queries[q];
    const std::set<ObjectId> answer = db->Answer(ids[q]);
    const std::string why =
        spec.knn ? CheckKnn(final_mod, *gdist, spec.k, t_end, answer)
                 : CheckWithin(final_mod, *gdist, spec.threshold, t_end,
                               answer);
    if (!why.empty()) {
      result.Mismatch("query " + std::to_string(q) + " vs naive: " + why);
    }
  }
  const Observed before_close = Observe(*db, ids);
  if (db->seq() != seq_after_setup + acked_updates) {
    result.Mismatch("seq " + std::to_string(db->seq()) + " != " +
                    std::to_string(seq_after_setup) + " + " +
                    std::to_string(acked_updates) + " acknowledged updates");
  }
  Phase("oracle");
  db.reset();
  const uint64_t bytes_at_close = DirBytes(dir);
  const RegistrySnapshot rec0 = RegistrySnapshot::Take();
  const double open0 = NowMicros();
  db = OpenServer(dir);
  const double recover_s = (NowMicros() - open0) * 1e-6;
  const double replayed =
      RegistrySnapshot::Take().Since(rec0, "modb.recovery.replayed_updates");
  db->AdvanceTo(t_end);
  const Observed after_reopen = Observe(*db, ids);
  if (after_reopen.answers != before_close.answers) {
    result.Mismatch("reopened answers differ from pre-close answers");
  }
  if (after_reopen.seq != before_close.seq) {
    result.Mismatch("reopened seq differs");
  }
  if (after_reopen.objects != before_close.objects) {
    result.Mismatch("reopened database differs from pre-close database");
  }
  // One coordinated checkpoint, so the checkpoint layer is measured.
  const double c0 = NowMicros();
  if (!db->Checkpoint().ok()) result.Mismatch("checkpoint failed");
  const double checkpoint_ms = (NowMicros() - c0) * 1e-3;
  db.reset();

  Phase("reopen");
  PrintLatency("read", read_us);
  const double disk_bytes_per_update =
      Ratio(static_cast<double>(bytes_at_close) -
                static_cast<double>(bytes_after_setup),
            static_cast<double>(acked_updates));
  std::printf(
      "%s: commits=%llu (first gateway %zu) acked_updates=%llu wall_s=%.3f "
      "reads=%zu checkpoint_ms=%.1f recover_s=%.4f replayed=%.0f "
      "disk_bytes_per_update=%.1f error_rate=%.6f\n",
      w.name.c_str(), static_cast<unsigned long long>(commits),
      ops[0].size(), static_cast<unsigned long long>(acked_updates),
      wall_us * 1e-6, read_us.size(), checkpoint_ms, recover_s, replayed,
      disk_bytes_per_update, result.ops.ErrorRate());

  if (!args.trace) {
    AddEndToEnd(setup_s, writes, start, peak_rss_mb, &result.metrics);
    RemoveDir(dir);
    return result;
  }

  // ---- traced run: replay the acknowledged commits one layer down ----
  std::vector<SpanRecord> traced_spans;
  for (const Op* op : acked_ops) {
    if (op->traced) traced_spans.push_back(op->span);
  }
  PrintSlowest(traced_spans);
  LayerSpans spans;
  ReplayShardLayer(w, acked_ops, args.work_dir + "/replay-shard", &spans);
  Phase("shard replay");
  ReplayDurabilityLayer(w, acked_ops, args.work_dir + "/replay-durable",
                        &spans);
  Phase("durability replay");
  ReplayQueriesLayer(w, acked_ops, &spans);
  Phase("queries replay");
  ReplayCoreLayer(w, acked_ops, &spans);
  Phase("core replay");

  std::vector<double> shard_self, queries_apply, queries_self, core_apply;
  double self_total = 0.0, main_total = 0.0, shard_service = 0.0;
  for (size_t i = 0; i < acked_ops.size(); ++i) {
    const Interval& commit = spans.shard[i];
    shard_service += commit.length();
    const double s_shard =
        SelfTime({commit}, AlignTo(spans.durability[i], commit.start));
    shard_self.push_back(s_shard);
    double s_dur = UnionLength(spans.durability[i]);
    for (const auto& [p, apply] : spans.apply_phase[i]) {
      s_dur -= CoveredLength({apply},
                             AlignTo(spans.queries[i][p], apply.start));
    }
    double s_queries = 0.0, s_core = 0.0;
    for (const auto& [p, calls] : spans.queries[i]) {
      const std::vector<Interval>& core = spans.core[i][p];
      for (size_t u = 0; u < calls.size(); ++u) {
        queries_apply.push_back(calls[u].length());
        const double self =
            SelfTime({calls[u]}, AlignTo({core[u]}, calls[u].start));
        queries_self.push_back(self);
        s_queries += self;
        core_apply.push_back(core[u].length());
        s_core += core[u].length();
      }
    }
    // Attribution covers the operations of the bench-tracing-on phases.
    if (acked_ops[i]->traced) {
      self_total += s_shard + s_dur + s_queries + s_core;
      main_total += acked_ops[i]->span.call.length();
    }
  }
  const double commits_d = static_cast<double>(commits);
  const double updates_d = static_cast<double>(acked_updates);
  ResultLine& m = result.metrics;
  m.Add("shard.commit_self_us.p50",
        ReportedPercentile(shard_self, 50, "shard.commit_self_us.p50"), "us");
  m.Add("shard.commit_self_us.p99",
        ReportedPercentile(shard_self, 99, "shard.commit_self_us.p99"), "us");
  m.Add("shard.publishes_per_commit",
        Ratio(reg_after.Since(reg_before, "modb.shard.publishes"), commits_d),
        "count");
  m.Add("shard.republish_us_per_cell", republish_us_per_cell, "us");
  m.Add("shard.commit_concurrency", Ratio(shard_service, wall_us), "ratio");
  m.Add("shard.answer_retries_per_read",
        Ratio(reg_after.Since(reg_before, "modb.shard.answer_retries"),
              static_cast<double>(read_us.size())),
        "count");
  m.Add("shard.dispatches_per_commit",
        Ratio(reg_after.Since(reg_before, "modb.shard.dispatches"), commits_d),
        "count");
  m.Add("shard.steals_per_commit",
        Ratio(reg_after.Since(reg_before, "modb.shard.steals"), commits_d),
        "count");
  m.Add("durability.log_us.p50",
        ReportedPercentile(spans.log_us, 50, "durability.log_us.p50"), "us");
  m.Add("durability.log_us.p99",
        ReportedPercentile(spans.log_us, 99, "durability.log_us.p99"), "us");
  m.Add("durability.fsyncs_per_update",
        Ratio(reg_after.Since(reg_before, "modb.wal.syncs"), updates_d),
        "count");
  m.Add("durability.apply_us.p50",
        ReportedPercentile(spans.apply_us, 50, "durability.apply_us.p50"),
        "us");
  m.Add("durability.apply_us.p99",
        ReportedPercentile(spans.apply_us, 99, "durability.apply_us.p99"),
        "us");
  m.Add("durability.wal_bytes_per_update",
        Ratio(reg_after.Since(reg_before, "modb.wal.append_bytes"), updates_d),
        "B");
  m.Add("durability.checkpoint_ms", checkpoint_ms, "ms");
  m.Add("durability.replay_us_per_update", Ratio(recover_s * 1e6, replayed),
        "us");
  m.Add("queries.apply_us", Median(queries_apply), "us");
  m.Add("queries.self_us", Median(queries_self), "us");
  m.Add("queries.answer_changes_per_update",
        Ratio(reg_after.Since(reg_before, "modb.query.answer_changes"),
              updates_d),
        "count");
  m.Add("queries.fanout_per_update",
        Ratio(reg_after.Since(reg_before, "modb.server.update_fanout"),
              reg_after.Since(reg_before, "modb.server.updates")),
        "count");
  const double core_updates = static_cast<double>(spans.core_updates);
  m.Add("core.apply_us.p50",
        ReportedPercentile(core_apply, 50, "core.apply_us.p50"), "us");
  m.Add("core.apply_us.p99",
        ReportedPercentile(core_apply, 99, "core.apply_us.p99"), "us");
  m.Add("core.us_per_support_change",
        Ratio(spans.core_us, static_cast<double>(spans.support_changes)),
        "us");
  m.Add("core.query_chdir_us", 0.0, "us");
  m.Add("core.start_s", spans.core_start_s, "s");
  m.Add("core.support_changes_per_update",
        Ratio(static_cast<double>(spans.support_changes), core_updates),
        "count");
  m.Add("core.crossings_per_update",
        Ratio(static_cast<double>(spans.crossings), core_updates), "count");
  m.Add("core.events_scheduled_per_update",
        Ratio(spans.events_scheduled, core_updates), "count");
  m.Add("core.cancel_ratio",
        Ratio(spans.events_cancelled, spans.events_scheduled), "ratio");
  m.Add("core.queue_peak", static_cast<double>(spans.queue_peak), "count");
  m.Add("obs.trace_events_per_update",
        Ratio(static_cast<double>(trace_events), updates_d), "count");
  m.Add("obs.bench_trace_overhead",
        Ratio(Median(write_on_us), Median(write_off_us)) - 1.0, "ratio");
  m.Add("unattributed_share", 1.0 - Ratio(self_total, main_total), "ratio");
  m.Add("write_p99_us", BlockedWrite(writes, 99), "us");
  m.Add("read_p50_us", ReportedPercentile(read_us, 50, "read_p50_us"), "us");
  m.Add("read_p99_us", ReportedPercentile(read_us, 99, "read_p99_us"), "us");
  m.Add("query_chdir_p50_us", 0.0, "us");
  m.Add("recover_s", recover_s, "s");
  m.Add("disk_bytes_per_update", disk_bytes_per_update, "B");
  m.Add("error_rate", result.ops.ErrorRate(), "ratio");
  RemoveDir(dir);
  return result;
}

}  // namespace

// 2 gateways commit single-vehicle chdirs, each on the vehicles of its own
// shards with its own clock; 1 reader polls merged answers; 96 standing
// queries on one hot point of interest.
Result RunFleetLive(const Args& args) {
  Workload w;
  w.name = "fleet_live";
  std::vector<Vec> positions;
  w.seed = Fleet(args.seed, &positions);
  w.poi = DensestPoint(positions, positions, 25.0);
  // Query q asks for the n = 1 + q % 12 nearest, and for the ones within
  // the radius that holds n vehicles at t = 0: answer sizes alike for
  // every seed.
  for (size_t q = 0; q < 48; ++q) {
    const size_t n = 1 + q % 12;
    w.queries.push_back({true, n, 0.0});
    w.queries.push_back({false, 0, RankThreshold(w.poi, positions, n)});
  }
  // The gateways keep the epoch lock always busy, so updates_per_s is the
  // server's capacity. Gateways that slept between commits would let the
  // cores go idle, and then a run would measure how fast this host wakes
  // them.
  w.writers = 2;
  struct Gateway {
    std::vector<ObjectId> vehicles;
    modb::Rng rng{0};
    // Starts after the fleet's pre-run turns.
    double clock = 0.001 * static_cast<double>(kFleetTurns + 1);
  };
  auto gateways = std::make_shared<std::vector<Gateway>>(w.writers);
  for (size_t g = 0; g < w.writers; ++g) {
    (*gateways)[g].rng = modb::Rng(args.seed * 7919 + g);
  }
  for (const Update& u : w.seed) {
    const size_t shard = ShardedQueryServer::ShardOf(u.oid, kShards);
    (*gateways)[shard % w.writers].vehicles.push_back(u.oid);
  }
  w.next_batch = [gateways](size_t g) {
    Gateway& gw = (*gateways)[g];
    gw.clock += gw.rng.Exponential(1.0 / kFleetGap);
    const ObjectId oid = gw.vehicles[static_cast<size_t>(gw.rng.UniformInt(
        0, static_cast<int64_t>(gw.vehicles.size()) - 1))];
    return std::vector<Update>{Update::ChangeDirection(
        oid, gw.clock, modb::RandomVelocity(gw.rng, 2, 1.0, 10.0))};
  };
  w.end_time = [gateways] {
    double t = 0.0;
    for (const Gateway& gw : *gateways) t = std::max(t, gw.clock);
    return t + 0.01;
  };
  return Run(w, args);
}

}  // namespace perfbench
