#include "core/sweep_state.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "obs/modb_metrics.h"
#include "obs/query_cost.h"
#include "queries/query_server.h"
#include "workload/generator.h"

namespace modb {
namespace {

// Records every notification for assertions.
class RecordingListener : public SweepListener {
 public:
  struct Event {
    enum Kind { kSwap, kInsert, kErase, kCurve } kind;
    double time;
    ObjectId a;
    ObjectId b;
  };
  std::vector<Event> events;

  void OnSwap(double time, ObjectId left, ObjectId right) override {
    events.push_back({Event::kSwap, time, left, right});
  }
  void OnInsert(double time, ObjectId oid) override {
    events.push_back({Event::kInsert, time, oid, kInvalidObjectId});
  }
  void OnErase(double time, ObjectId oid) override {
    events.push_back({Event::kErase, time, oid, kInvalidObjectId});
  }
  void OnCurveChanged(double time, ObjectId oid) override {
    events.push_back({Event::kCurve, time, oid, kInvalidObjectId});
  }
};

GDistancePtr OriginDistance1D() {
  return std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0}));
}

TEST(SweepStateTest, TwoObjectsSwapAtCrossing) {
  SweepState state(OriginDistance1D(), 0.0);
  RecordingListener listener;
  state.AddListener(&listener);
  // o1 at 10 moving in; o2 at 2 stationary-ish; f1 = (10-t)², f2 = 4.
  state.InsertObject(1, Trajectory::Linear(0.0, Vec{10.0}, Vec{-1.0}));
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{2, 1}));
  EXPECT_EQ(state.queue_length(), 1u);

  state.AdvanceTo(20.0);
  // f1 dips below 4 at t = 8 and rises above again at t = 12.
  std::vector<RecordingListener::Event> swaps;
  for (const auto& e : listener.events) {
    if (e.kind == RecordingListener::Event::kSwap) swaps.push_back(e);
  }
  ASSERT_EQ(swaps.size(), 2u);
  EXPECT_NEAR(swaps[0].time, 8.0, 1e-9);
  EXPECT_EQ(swaps[0].a, 2);  // o2 was before o1.
  EXPECT_EQ(swaps[0].b, 1);
  EXPECT_NEAR(swaps[1].time, 12.0, 1e-9);
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{2, 1}));
  state.CheckInvariants();
}

TEST(SweepStateTest, StatsCountSupportChanges) {
  SweepState state(OriginDistance1D(), 0.0);
  state.InsertObject(1, Trajectory::Linear(0.0, Vec{10.0}, Vec{-1.0}));
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));
  state.AdvanceTo(20.0);
  EXPECT_EQ(state.stats().swaps, 2u);
  EXPECT_EQ(state.stats().inserts, 2u);
  EXPECT_EQ(state.stats().SupportChanges(), 4u);
}

TEST(SweepStateTest, InsertionRepairsAdjacentPairs) {
  SweepState state(OriginDistance1D(), 0.0);
  state.InsertObject(1, Trajectory::Stationary(0.0, Vec{1.0}));   // f = 1.
  state.InsertObject(3, Trajectory::Stationary(0.0, Vec{3.0}));   // f = 9.
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));   // f = 4.
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{1, 2, 3}));
  // All stationary: no events.
  EXPECT_EQ(state.queue_length(), 0u);
  state.CheckInvariants();
}

TEST(SweepStateTest, EraseClosesTheGap) {
  SweepState state(OriginDistance1D(), 0.0);
  state.InsertObject(1, Trajectory::Stationary(0.0, Vec{1.0}));
  state.InsertObject(2, Trajectory::Linear(0.0, Vec{2.0}, Vec{1.0}));
  state.InsertObject(3, Trajectory::Stationary(0.0, Vec{3.0}));
  state.EraseObject(2);
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{1, 3}));
  EXPECT_FALSE(state.ContainsObject(2));
  state.CheckInvariants();
}

TEST(SweepStateTest, ReplaceCurveCancelsAndReschedules) {
  SweepState state(OriginDistance1D(), 0.0);
  // o1 approaches the origin: crossing with o2's constant 4 at t = 8.
  Trajectory o1 = Trajectory::Linear(0.0, Vec{10.0}, Vec{-1.0});
  state.InsertObject(1, o1);
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));
  ASSERT_EQ(state.queue_length(), 1u);
  // At t=4 o1 stops: f1 = 36 forever, the crossing disappears.
  state.AdvanceTo(4.0);
  ASSERT_TRUE(o1.AddTurn(4.0, Vec{0.0}).ok());
  state.ReplaceCurve(1, o1);
  EXPECT_EQ(state.queue_length(), 0u);
  state.AdvanceTo(30.0);
  EXPECT_EQ(state.stats().swaps, 0u);
  state.CheckInvariants();
}

TEST(SweepStateTest, ReplaceCurveWithValueJumpBubblesIntoPlace) {
  // The paper's relaxed-continuity setting: a curve replacement that jumps
  // the value repositions the object via a cascade of same-instant swaps.
  SweepState state(OriginDistance1D(), 0.0);
  state.InsertObject(1, Trajectory::Stationary(0.0, Vec{1.0}));  // f = 1.
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));  // f = 4.
  state.InsertObject(3, Trajectory::Stationary(0.0, Vec{3.0}));  // f = 9.
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{1, 2, 3}));
  state.AdvanceTo(5.0);
  // o1 "teleports" beyond everyone: f jumps 1 -> 100.
  state.ReplaceCurve(1, Trajectory::Stationary(0.0, Vec{10.0}));
  state.AdvanceTo(5.0);  // Drain the repair events at the same instant.
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{2, 3, 1}));
  EXPECT_EQ(state.stats().swaps, 2u);  // Bubbled two positions.
  state.CheckInvariants();
}

TEST(SweepStateTest, SentinelParticipatesInOrder) {
  SweepState state(OriginDistance1D(), 0.0);
  state.InsertObject(1, Trajectory::Linear(0.0, Vec{10.0}, Vec{-1.0}));
  state.InsertSentinel(-7, 25.0);  // Threshold: distance² = 25.
  EXPECT_TRUE(state.IsSentinel(-7));
  // f1(0) = 100 > 25: sentinel first.
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{-7, 1}));
  // o1 dips below 25 at t = 5.
  state.AdvanceTo(6.0);
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{1, -7}));
  EXPECT_EQ(state.stats().swaps, 1u);
  state.CheckInvariants();
}

TEST(SweepStateTest, QueueLengthBoundedByN) {
  // Lemma 9: adjacent pairs only -> queue length <= N - 1.
  const RandomModOptions options{.num_objects = 60, .dim = 2, .seed = 31};
  const MovingObjectDatabase mod = RandomMod(options);
  auto gdist = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0, 0.0}));
  SweepState state(gdist, 0.0);
  for (const auto& [oid, trajectory] : mod.objects()) {
    state.InsertObject(oid, trajectory);
    EXPECT_LE(state.queue_length(), state.size());
  }
  state.AdvanceTo(300.0);
  EXPECT_LE(state.stats().max_queue_length, options.num_objects - 1);
  EXPECT_GT(state.stats().swaps, 0u);
  state.CheckInvariants();
}

// Every queued event was scheduled and has since fired, been cancelled,
// or is still queued — including across a Theorem 10 query chdir, whose
// rebuild drops the whole queue and schedules a fresh one. Checked on the
// sweep's own stats(), on the registry counters it publishes to, and on
// the ledger GROUP row of the QueryServer that owns it.
TEST(SweepStateTest, EventCountsBalanceQueueAcrossQueryChdir) {
  const RandomModOptions options{.num_objects = 50, .dim = 2, .seed = 43};
  Trajectory query = Trajectory::Linear(0.0, Vec{20.0, -10.0}, Vec{-1.0, 2.0});
  const obs::ModbMetrics& m = obs::M();
  const uint64_t scheduled0 = m.sweep_events_scheduled->Value();
  const uint64_t cancelled0 = m.sweep_events_cancelled->Value();
  const uint64_t fired0 = m.sweep_swaps->Value();

  QueryServer server(RandomMod(options), 0.0);
  const GDistancePtr gdist = std::make_shared<SquaredEuclideanGDistance>(query);
  server.AddKnn("moving", gdist, 3);
  server.AddWithin("moving", gdist, 400.0);
  FutureQueryEngine* engine = nullptr;
  server.VisitEngines(
      [&](const std::string&, FutureQueryEngine& e) { engine = &e; });
  ASSERT_NE(engine, nullptr);
  const SweepState& state = engine->state();
  auto balance = [&] {
    const SweepStats& stats = state.stats();
    EXPECT_EQ(stats.events_scheduled - stats.swaps - stats.events_cancelled,
              state.queue_length());
    const uint64_t scheduled = m.sweep_events_scheduled->Value() - scheduled0;
    const uint64_t cancelled = m.sweep_events_cancelled->Value() - cancelled0;
    const uint64_t fired = m.sweep_swaps->Value() - fired0;
    EXPECT_EQ(scheduled - fired - cancelled, state.queue_length());
    const obs::CostRow group = server.cost_ledger().GroupTotals();
    EXPECT_EQ(group.schedules - group.swaps - group.cancels,
              state.queue_length());
  };

  server.AdvanceTo(20.0);
  balance();
  ASSERT_GT(state.queue_length(), 0u);

  ASSERT_TRUE(query.AddTurn(20.0, Vec{3.0, 0.5}).ok());
  const uint64_t cancels_before = state.stats().events_cancelled;
  const size_t queued_before = state.queue_length();
  engine->ChangeQueryGDistance(
      std::make_shared<SquaredEuclideanGDistance>(query));
  EXPECT_EQ(state.stats().events_cancelled - cancels_before, queued_before);
  balance();

  server.AdvanceTo(60.0);
  balance();
  state.CheckInvariants();
}

TEST(SweepStateTest, OrderMatchesResortAtManyTimes) {
  // Property: after any amount of sweeping, the maintained order equals a
  // fresh sort by curve value.
  const RandomModOptions options{.num_objects = 40, .dim = 2, .seed = 57};
  const MovingObjectDatabase mod = RandomMod(options);
  auto gdist = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Linear(0.0, Vec{100.0, -50.0}, Vec{-3.0, 2.0}));
  SweepState state(gdist, 0.0);
  for (const auto& [oid, trajectory] : mod.objects()) {
    state.InsertObject(oid, trajectory);
  }
  for (double t = 25.0; t <= 500.0; t += 25.0) {
    state.AdvanceTo(t);
    state.CheckInvariants();  // Includes order-vs-values verification.
  }
}

TEST(SweepStateTest, HorizonSuppressesLaterEvents) {
  SweepState state(OriginDistance1D(), 0.0, /*horizon=*/5.0);
  // Crossing would be at t = 8, beyond the horizon.
  state.InsertObject(1, Trajectory::Linear(0.0, Vec{10.0}, Vec{-1.0}));
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));
  EXPECT_EQ(state.queue_length(), 0u);
  state.AdvanceTo(5.0);
  EXPECT_EQ(state.stats().swaps, 0u);
}

TEST(SweepStateTest, AdvanceBackwardsDies) {
  SweepState state(OriginDistance1D(), 10.0);
  EXPECT_DEATH(state.AdvanceTo(9.0), "");
}

}  // namespace
}  // namespace modb
