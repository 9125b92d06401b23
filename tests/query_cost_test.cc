#include "obs/query_cost.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gdist/builtin.h"
#include "obs/modb_metrics.h"
#include "obs/slow_log.h"
#include "queries/query_server.h"
#include "shard/sharded_server.h"
#include "workload/generator.h"

namespace modb {
namespace obs {
namespace {

namespace fs = std::filesystem;

GDistancePtr OriginDistance() {
  return std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0, 0.0}));
}

std::string ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("modb_cost_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir.string();
}

// ---- docs/QUERYCOST.md lockstep -------------------------------------------

// The "Ledger columns" table must name exactly LedgerColumnNames(), in
// order — the METRICS.md pattern, so the doc cannot drift from the code.
TEST(QueryCostDocTest, LedgerDocMatchesColumns) {
  const std::string doc_path =
      std::string(MODB_SOURCE_DIR) + "/docs/QUERYCOST.md";
  std::ifstream doc(doc_path);
  ASSERT_TRUE(doc.is_open()) << "cannot open " << doc_path;

  std::vector<std::string> documented;
  std::string line;
  bool in_table = false;
  while (std::getline(doc, line)) {
    if (line.rfind("## Ledger columns", 0) == 0) {
      in_table = true;
      continue;
    }
    if (in_table && line.rfind("## ", 0) == 0) break;
    if (!in_table || line.rfind("| `", 0) != 0) continue;
    const size_t start = line.find('`');
    const size_t end = line.find('`', start + 1);
    ASSERT_NE(end, std::string::npos) << line;
    documented.push_back(line.substr(start + 1, end - start - 1));
  }

  EXPECT_EQ(documented, LedgerColumnNames())
      << "docs/QUERYCOST.md ledger table disagrees with "
         "obs::LedgerColumnNames()";
}

// ---- CostRow arithmetic ---------------------------------------------------

TEST(CostRowTest, SumMinusAndTraceSemantics) {
  CostRow a;
  a.swaps = 5;
  a.answer_delta = 2;
  a.last_change_trace = 7;
  CostRow b;
  b.swaps = 3;
  b.crossings = 9;
  b.last_change_trace = 0;  // Must not clobber a's trace.
  a += b;
  EXPECT_EQ(a.swaps, 8u);
  EXPECT_EQ(a.crossings, 9u);
  EXPECT_EQ(a.answer_delta, 2u);
  EXPECT_EQ(a.last_change_trace, 7u);
  b.last_change_trace = 11;
  a += b;
  EXPECT_EQ(a.last_change_trace, 11u);

  CostRow base;
  base.swaps = 100;  // Larger than a's: Minus must saturate, not wrap.
  base.crossings = 4;
  const CostRow window = a.Minus(base);
  EXPECT_EQ(window.swaps, 0u);
  EXPECT_EQ(window.crossings, 14u);

  // Column helpers cover every summable column, in field order.
  const auto& names = LedgerColumnNames();
  ASSERT_EQ(names.size(), 13u);
  CostRow probe;
  probe.updates = 1;
  EXPECT_EQ(LedgerColumnValue(probe, 0), 1u);
  EXPECT_EQ(names[0], "updates");
  probe.sentinel_swaps = 3;
  EXPECT_EQ(LedgerColumnValue(probe, names.size() - 1), 3u);
  EXPECT_EQ(names.back(), "sentinel_swaps");
}

// ---- ledger registration lifecycle ----------------------------------------

TEST(LedgerTest, RegisterRetireTombstonesAndGauges) {
  ModbMetrics& m = M();
  const int64_t groups_before = m.cost_groups->Value();
  const int64_t queries_before = m.cost_queries->Value();

  QueryCostLedger ledger;
  CostCell* group = ledger.GroupCell("g");
  ASSERT_NE(group, nullptr);
  CostCell* q1 = ledger.AddQuery(1, "g", true, 3.0);
  CostCell* q2 = ledger.AddQuery(2, "g", false, 50.0);
  EXPECT_EQ(m.cost_groups->Value(), groups_before + 1);
  EXPECT_EQ(m.cost_queries->Value(), queries_before + 2);

  group->swaps.fetch_add(10);
  q1->answer_changes.fetch_add(4);
  q2->sentinel_swaps.fetch_add(6);

  QueryCostLedger::QuerySnapshot query;
  QueryCostLedger::GroupSnapshot gsnap;
  ASSERT_TRUE(ledger.FindQuery(1, &query, &gsnap));
  EXPECT_TRUE(query.live);
  EXPECT_TRUE(query.is_knn);
  EXPECT_EQ(query.param, 3.0);
  EXPECT_EQ(query.total.answer_changes, 4u);
  EXPECT_EQ(gsnap.live_queries, 2);
  EXPECT_EQ(gsnap.total.swaps, 10u);

  // Retire one: its costs stay visible, the group keeps one sharer.
  ledger.RetireQuery(1);
  ledger.RetireQuery(1);  // Idempotent.
  ASSERT_TRUE(ledger.FindQuery(1, &query, &gsnap));
  EXPECT_FALSE(query.live);
  EXPECT_EQ(query.total.answer_changes, 4u);
  EXPECT_EQ(gsnap.live_queries, 1);
  EXPECT_TRUE(gsnap.live);
  EXPECT_EQ(m.cost_queries->Value(), queries_before + 1);

  // Retire the last sharer: the group tombstones too.
  ledger.RetireQuery(2);
  ASSERT_TRUE(ledger.FindQuery(2, &query, &gsnap));
  EXPECT_FALSE(gsnap.live);
  EXPECT_EQ(gsnap.live_queries, 0);
  EXPECT_EQ(m.cost_groups->Value(), groups_before);
  EXPECT_EQ(m.cost_queries->Value(), queries_before);

  // Totals sum retired entries: reconciliation sees all work ever done.
  EXPECT_EQ(ledger.GroupTotals().swaps, 10u);
  EXPECT_EQ(ledger.QueryTotals().answer_changes, 4u);
  EXPECT_EQ(ledger.QueryTotals().sentinel_swaps, 6u);

  ASSERT_FALSE(ledger.FindQuery(99, nullptr, nullptr));
}

TEST(LedgerTest, WindowRollRestartsWindowsOnly) {
  QueryCostLedger ledger;
  CostCell* group = ledger.GroupCell("g");
  CostCell* cell = ledger.AddQuery(1, "g", true, 1.0);
  group->crossings.fetch_add(7);
  cell->answer_delta.fetch_add(3);

  auto groups = ledger.Groups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].window.crossings, 7u);

  ledger.RollWindows();
  groups = ledger.Groups();
  auto queries = ledger.Queries();
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_EQ(groups[0].window.crossings, 0u);
  EXPECT_EQ(groups[0].total.crossings, 7u);  // Cumulative untouched.
  EXPECT_EQ(queries[0].window.answer_delta, 0u);
  EXPECT_EQ(queries[0].total.answer_delta, 3u);

  group->crossings.fetch_add(2);
  groups = ledger.Groups();
  EXPECT_EQ(groups[0].window.crossings, 2u);
  EXPECT_EQ(groups[0].total.crossings, 9u);
}

// ---- reconciliation: ledger == SweepStats == registry ---------------------

// The acceptance invariant: after a seeded workload, summing a column
// over every GROUP row equals both the engines' SweepStats and the
// process registry's deltas — attribution never invents or loses an
// event. 50 seeds, mixed kNN/within over two g-distance groups.
TEST(ReconciliationTest, FiftySeedsLedgerMatchesRegistryAndStats) {
  ModbMetrics& m = M();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const uint64_t swaps0 = m.sweep_swaps->Value();
    const uint64_t inserts0 = m.sweep_inserts->Value();
    const uint64_t erases0 = m.sweep_erases->Value();
    const uint64_t rebuilds0 = m.sweep_curve_rebuilds->Value();
    const uint64_t crossings0 = m.sweep_crossings_computed->Value();
    const uint64_t schedules0 = m.sweep_events_scheduled->Value();
    const uint64_t cancels0 = m.sweep_events_cancelled->Value();
    const uint64_t updates0 = m.future_updates->Value();
    const uint64_t changes0 = m.answer_changes->Value();

    const RandomModOptions options{
        .num_objects = 12, .dim = 2, .box_lo = -60.0, .box_hi = 60.0,
        .seed = seed};
    MovingObjectDatabase mod = RandomMod(options);
    const UpdateStreamOptions stream{
        .count = 15, .mean_gap = 0.4, .seed = seed + 1000};
    const std::vector<Update> updates =
        RandomUpdateStream(mod, options, stream);

    QueryServer server(mod, 0.0);
    server.AddKnn("origin", OriginDistance(), 1 + seed % 3);
    server.AddWithin("origin", OriginDistance(), 900.0);
    if (seed % 2 == 0) {
      const GDistancePtr moving =
          std::make_shared<SquaredEuclideanGDistance>(
              Trajectory::Linear(0.0, Vec{10.0, 0.0}, Vec{-1.0, 0.5}));
      server.AddKnn("chase", moving, 2);
    }
    for (const Update& update : updates) {
      ASSERT_TRUE(server.ApplyUpdate(update).ok());
    }
    server.AdvanceTo(updates.back().time + 3.0);

    const CostRow groups = server.cost_ledger().GroupTotals();
    const SweepStats stats = server.TotalStats();
    // Ledger vs the engines' own stats structs (live engines only — no
    // removals in this phase).
    EXPECT_EQ(groups.swaps, stats.swaps) << "seed " << seed;
    EXPECT_EQ(groups.inserts, stats.inserts) << "seed " << seed;
    EXPECT_EQ(groups.erases, stats.erases) << "seed " << seed;
    EXPECT_EQ(groups.curve_rebuilds, stats.curve_rebuilds) << "seed " << seed;
    EXPECT_EQ(groups.crossings, stats.crossings_computed) << "seed " << seed;
    EXPECT_EQ(groups.batch_lanes, stats.batch_lanes) << "seed " << seed;
    EXPECT_EQ(groups.schedules, stats.events_scheduled) << "seed " << seed;
    EXPECT_EQ(groups.cancels, stats.events_cancelled) << "seed " << seed;
    // Ledger vs the process registry's deltas (the only counter for
    // updates).
    EXPECT_EQ(groups.swaps, m.sweep_swaps->Value() - swaps0)
        << "seed " << seed;
    EXPECT_EQ(groups.inserts, m.sweep_inserts->Value() - inserts0)
        << "seed " << seed;
    EXPECT_EQ(groups.erases, m.sweep_erases->Value() - erases0)
        << "seed " << seed;
    EXPECT_EQ(groups.curve_rebuilds,
              m.sweep_curve_rebuilds->Value() - rebuilds0)
        << "seed " << seed;
    EXPECT_EQ(groups.crossings,
              m.sweep_crossings_computed->Value() - crossings0)
        << "seed " << seed;
    EXPECT_EQ(groups.schedules,
              m.sweep_events_scheduled->Value() - schedules0)
        << "seed " << seed;
    EXPECT_EQ(groups.cancels, m.sweep_events_cancelled->Value() - cancels0)
        << "seed " << seed;
    EXPECT_EQ(groups.updates, m.future_updates->Value() - updates0)
        << "seed " << seed;
    // Per-query answer churn is exact too: kernels attach their cost
    // sink before their initial Record.
    EXPECT_EQ(server.cost_ledger().QueryTotals().answer_changes,
              m.answer_changes->Value() - changes0)
        << "seed " << seed;
  }
}

// Removing queries mid-workload must not lose attributed work: the
// tombstoned rows keep their columns, so ledger totals still equal the
// registry deltas even after the engines they mirror are torn down.
TEST(ReconciliationTest, RetiredWorkStaysVisible) {
  ModbMetrics& m = M();
  const uint64_t swaps0 = m.sweep_swaps->Value();
  const uint64_t changes0 = m.answer_changes->Value();

  const RandomModOptions options{
      .num_objects = 15, .dim = 2, .box_lo = -50.0, .box_hi = 50.0,
      .seed = 7};
  MovingObjectDatabase mod = RandomMod(options);
  const UpdateStreamOptions stream{.count = 20, .mean_gap = 0.3, .seed = 8};
  const std::vector<Update> updates = RandomUpdateStream(mod, options, stream);

  QueryServer server(mod, 0.0);
  const QueryId doomed = server.AddKnn("origin", OriginDistance(), 2);
  server.AddWithin("origin", OriginDistance(), 400.0);
  for (size_t i = 0; i < updates.size(); ++i) {
    ASSERT_TRUE(server.ApplyUpdate(updates[i]).ok());
    if (i == updates.size() / 2) {
      ASSERT_TRUE(server.RemoveQuery(doomed).ok());
    }
  }
  server.AdvanceTo(updates.back().time + 2.0);

  EXPECT_EQ(server.cost_ledger().GroupTotals().swaps,
            m.sweep_swaps->Value() - swaps0);
  EXPECT_EQ(server.cost_ledger().QueryTotals().answer_changes,
            m.answer_changes->Value() - changes0);

  // The tombstoned row still explains.
  const QueryCostReport report = server.ExplainQuery(doomed);
  EXPECT_TRUE(report.found);
  EXPECT_FALSE(report.live);
}

// ---- ExplainQuery determinism (S = 1 and S = 4) ---------------------------

// Two identical runs must render identical reports once the
// nondeterministic bits — wall time (excluded by include_timing=false)
// and trace ids (global counter, stripped here) — are held out.
std::string StripTraceLines(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("trace") == std::string::npos) out << line << "\n";
  }
  return out.str();
}

#define ASSERT_TRUE_OR_RETURN(status_expr)                       \
  do {                                                           \
    const Status _s = (status_expr);                             \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                       \
    if (!_s.ok()) return {};                                     \
  } while (0)

// A fixed mixed workload against a sharded directory; returns the
// explain renders for the two standing queries.
std::vector<std::string> RunShardedWorkload(const std::string& dir,
                                            size_t shards) {
  ShardedServerOptions options;
  options.shards = shards;
  options.threads = 1;  // Deterministic per-shard task order.
  options.durability.dim = 2;
  options.durability.auto_checkpoint = false;
  auto opened = ShardedQueryServer::Open(dir, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return {};
  ShardedQueryServer& db = **opened;

  const Trajectory origin = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
  const QueryId nearest = *db.AddKnn("origin", origin, 2);
  const QueryId ring = *db.AddWithin("origin", origin, 64.0);
  for (int i = 0; i < 12; ++i) {
    const double x = (i % 4) * 5.0 - 7.5;
    const double y = (i / 4) * 5.0 - 5.0;
    ASSERT_TRUE_OR_RETURN(db.ApplyUpdate(Update::NewObject(
        i + 1, 0.0, Vec{x, y}, Vec{-x / 10.0, -y / 10.0})));
  }
  for (int i = 0; i < 12; i += 3) {
    ASSERT_TRUE_OR_RETURN(db.ApplyUpdate(
        Update::ChangeDirection(i + 1, 2.0, Vec{0.5, -0.5})));
  }
  db.AdvanceTo(6.0);
  return {RenderExplainText(db.ExplainQuery(nearest), false),
          RenderExplainText(db.ExplainQuery(ring), false)};
}

TEST(ExplainDeterminismTest, IdenticalRunsRenderIdenticallyS1AndS4) {
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    const std::string tag = "det_s" + std::to_string(shards);
    const std::vector<std::string> first =
        RunShardedWorkload(ScratchDir(tag + "_a"), shards);
    const std::vector<std::string> second =
        RunShardedWorkload(ScratchDir(tag + "_b"), shards);
    ASSERT_EQ(first.size(), 2u);
    ASSERT_EQ(second.size(), 2u);
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(StripTraceLines(first[i]), StripTraceLines(second[i]))
          << "S=" << shards << " query " << i;
      // Timing excluded: the nondeterministic column never renders.
      EXPECT_EQ(first[i].find("wall_micros"), std::string::npos);
    }
    // Structure: the kNN report names its group and carries one
    // breakdown section per shard (sharded servers always break down,
    // even at S = 1).
    EXPECT_NE(first[0].find("group: origin"), std::string::npos);
    size_t sections = 0;
    for (size_t pos = 0;
         (pos = first[0].find("shard ", pos)) != std::string::npos; ++pos) {
      ++sections;
    }
    EXPECT_EQ(sections, shards) << "S=" << shards;
  }
}

TEST(ExplainDeterminismTest, UnknownIdReportsNotFound) {
  const RandomModOptions options{.num_objects = 5, .dim = 2, .seed = 3};
  QueryServer server(RandomMod(options), 0.0);
  const QueryCostReport report = server.ExplainQuery(1234);
  EXPECT_FALSE(report.found);
  const std::string text = RenderExplainText(report, false);
  EXPECT_NE(text.find("not found"), std::string::npos);
  const std::string json = RenderExplainJson(report, false);
  EXPECT_NE(json.find("\"found\": false"), std::string::npos);
}

// ---- db-top ranking -------------------------------------------------------

// The E15-style mixed workload from the issue: several well-behaved
// queries plus one deliberately pathological one — a tight-threshold
// within on a dense cluster, whose sentinel sits inside the cluster and
// soaks up threshold crossings and answer churn. db-top must rank it
// first under both scores.
TEST(TopRankingTest, PathologicalTightWithinRanksFirst) {
  MovingObjectDatabase mod(2);
  // A dense cluster breathing around radius ~3 of the origin, so squared
  // distances oscillate around 9.0, plus two far-away cruisers.
  for (int i = 0; i < 10; ++i) {
    const double angle = i * 0.628;
    const double r = 2.5 + 0.1 * i;
    ASSERT_TRUE(mod.Apply(Update::NewObject(
        i + 1, 0.0,
        Vec{r * std::cos(angle), r * std::sin(angle)},
        Vec{0.4 * std::cos(angle + 1.57), 0.4 * std::sin(angle + 1.57)}))
                    .ok());
  }
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(100, 0.0, Vec{80.0, 0.0}, Vec{0.1, 0.0}))
          .ok());
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(101, 0.0, Vec{0.0, 90.0}, Vec{0.0, 0.1}))
          .ok());

  QueryServer server(mod, 0.0);
  const QueryId benign1 = server.AddKnn("origin", OriginDistance(), 1);
  const QueryId benign2 = server.AddWithin("origin", OriginDistance(), 5000.0);
  // The pathological query: threshold 9.0 slices the breathing cluster.
  const QueryId tight = server.AddWithin("origin", OriginDistance(), 9.0);

  for (int round = 1; round <= 8; ++round) {
    const double t = round * 0.5;
    for (int i = 0; i < 10; ++i) {
      const double angle = i * 0.628 + round;
      ASSERT_TRUE(server
                      .ApplyUpdate(Update::ChangeDirection(
                          i + 1, t,
                          Vec{0.5 * std::cos(angle), 0.5 * std::sin(angle)}))
                      .ok());
    }
  }
  server.AdvanceTo(8.0);

  std::vector<TopEntry> entries = server.TopQueries();
  ASSERT_EQ(entries.size(), 3u);
  SortTop(&entries, /*by_churn=*/false);
  EXPECT_EQ(entries[0].id, tight)
      << RenderTopText(entries, entries.size(), false);
  EXPECT_GT(entries[0].own.sentinel_swaps, 0u);
  SortTop(&entries, /*by_churn=*/true);
  EXPECT_EQ(entries[0].id, tight)
      << RenderTopText(entries, entries.size(), true);
  (void)benign1;
  (void)benign2;

  // Render sanity: the text table ranks rows and the JSON carries both
  // scores; a limit cuts the tail.
  SortTop(&entries, false);
  const std::string text = RenderTopText(entries, 2, false);
  EXPECT_NE(text.find("rank"), std::string::npos);
  EXPECT_EQ(text.find("q" + std::to_string(entries[2].id)),
            std::string::npos);
  const std::string json = RenderTopJson(entries, 2, false);
  EXPECT_NE(json.find("\"cost_score\""), std::string::npos);
  EXPECT_NE(json.find("\"churn_score\""), std::string::npos);
}

// ---- slow-update log ------------------------------------------------------

TEST(SlowLogTest, AdmissionEvictsCheapestAndOrdersSnapshot) {
  SlowLog log(3);
  auto offer = [&log](uint64_t micros) {
    SlowUpdateRecord record;
    record.trace_id = micros;
    record.oid = static_cast<int64_t>(micros);
    record.kind = 0;
    record.wall_micros = micros;
    return log.Offer(record);
  };
  EXPECT_TRUE(offer(10));
  EXPECT_TRUE(offer(30));
  EXPECT_TRUE(offer(20));
  // Ring full; cheaper than the floor (10) is rejected on the fast path.
  EXPECT_FALSE(offer(5));
  EXPECT_FALSE(offer(10));  // Ties lose: must beat the floor.
  // Costlier admits and evicts the cheapest resident.
  EXPECT_TRUE(offer(25));
  const std::vector<SlowUpdateRecord> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].wall_micros, 30u);  // Costliest first.
  EXPECT_EQ(snapshot[1].wall_micros, 25u);
  EXPECT_EQ(snapshot[2].wall_micros, 20u);
  EXPECT_LT(snapshot[0].seq, snapshot[2].seq);  // 30 admitted before 20.

  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_TRUE(offer(1));  // Floor reset with the records.
}

TEST(SlowLogTest, JsonDumpAndChdirKind) {
  SlowLog log(4);
  SlowUpdateRecord update;
  update.trace_id = 42;
  update.oid = 7;
  update.kind = 1;
  update.model_time = 2.5;
  update.wall_micros = 100;
  update.support_changes = 12;
  update.crossings = 30;
  ASSERT_TRUE(log.Offer(update));
  SlowUpdateRecord chdir;
  chdir.trace_id = 43;
  chdir.kind = kChdirKind;
  chdir.wall_micros = 900;
  ASSERT_TRUE(log.Offer(chdir));

  const std::string json = log.ToJson();
  EXPECT_NE(json.find("\"slowLog\""), std::string::npos);
  EXPECT_NE(json.find("\"traceId\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"kindName\": \"chdir\""), std::string::npos);
  EXPECT_NE(json.find("\"supportChanges\": 12"), std::string::npos);

  const std::string path =
      (fs::path(::testing::TempDir()) / "modb_slow_log_dump.json").string();
  ASSERT_TRUE(log.DumpToFile(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json);

  log.SetAutoDumpPath(path + ".auto");
  EXPECT_EQ(log.AutoDump(), path + ".auto");
  EXPECT_TRUE(fs::exists(path + ".auto"));
}

// Driving a real server feeds the global slow log: with a fresh (empty)
// ring every timed update is costlier than the floor, so the first
// updates admit, and each record carries a replayable trace id.
TEST(SlowLogTest, ServerUpdatesReachGlobalLog) {
  SlowLog::Global().Clear();
  const uint64_t offers0 = M().slowlog_offers->Value();
  const uint64_t admits0 = M().slowlog_admits->Value();

  const RandomModOptions options{.num_objects = 10, .dim = 2, .seed = 21};
  MovingObjectDatabase mod = RandomMod(options);
  const UpdateStreamOptions stream{.count = 10, .mean_gap = 0.5, .seed = 22};
  const std::vector<Update> updates = RandomUpdateStream(mod, options, stream);
  QueryServer server(mod, 0.0);
  server.AddKnn("origin", OriginDistance(), 2);
  for (const Update& update : updates) {
    ASSERT_TRUE(server.ApplyUpdate(update).ok());
  }
  server.AdvanceTo(updates.back().time + 1.0);

  EXPECT_GE(M().slowlog_offers->Value() - offers0, updates.size());
  EXPECT_GT(M().slowlog_admits->Value(), admits0);
  const std::vector<SlowUpdateRecord> snapshot = SlowLog::Global().Snapshot();
  ASSERT_FALSE(snapshot.empty());
  for (const SlowUpdateRecord& record : snapshot) {
    EXPECT_NE(record.trace_id, 0u);
  }
}

// ---- concurrency (the TSan target) ----------------------------------------

// Committers hammer cells through the relaxed fast path while readers
// snapshot, explain and roll windows, and a second wave of threads races
// offers into one slow log. TSan proves the fast paths are data-race
// free; the exact totals prove no increment is lost.
TEST(ConcurrencyTest, CommittersAndReadersShareLedgerAndSlowLog) {
  QueryCostLedger ledger;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  std::vector<CostCell*> cells;
  cells.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    const std::string key = std::string("g") + std::to_string(w / 2);
    cells.push_back(w % 2 == 0 ? ledger.GroupCell(key)
                               : ledger.AddQuery(w, key, true, 1.0));
  }
  SlowLog log(8);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&log, cell = cells[w], w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        cell->swaps.fetch_add(1, std::memory_order_relaxed);
        cell->answer_delta.fetch_add(1, std::memory_order_relaxed);
        if (i % 64 == 0) {
          SlowUpdateRecord record;
          record.trace_id = i + 1;
          record.wall_micros = (i * 2654435761u) % 4096;
          record.oid = w;
          log.Offer(record);
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&ledger, &log, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)ledger.Groups();
      (void)ledger.GroupTotals();
      QueryCostLedger::QuerySnapshot snapshot;
      (void)ledger.FindQuery(1, &snapshot, nullptr);
      (void)log.Snapshot();
      (void)log.ToJson();
    }
  });
  for (auto& thread : threads) thread.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  CostRow total = ledger.GroupTotals();
  total += ledger.QueryTotals();
  EXPECT_EQ(total.swaps, kWriters * kPerWriter);
  EXPECT_EQ(total.answer_delta, kWriters * kPerWriter);
  EXPECT_EQ(log.Snapshot().size(), 8u);
}

}  // namespace
}  // namespace obs
}  // namespace modb
