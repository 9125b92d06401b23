#include "obs/metrics.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "obs/modb_metrics.h"
#include "queries/knn.h"
#include "workload/generator.h"

namespace modb {
namespace obs {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

// The fast path is a relaxed fetch_add; under TSan this test also proves
// the increment is data-race free. Totals must be exact, not approximate.
TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddAndWatermark) {
  Gauge g;
  g.Set(10);
  EXPECT_EQ(g.Value(), 10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.SetMax(5);  // Below current: no change.
  EXPECT_EQ(g.Value(), 7);
  g.SetMax(100);
  EXPECT_EQ(g.Value(), 100);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(GaugeTest, ConcurrentSetMaxKeepsMaximum) {
  Gauge g;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int64_t i = 0; i < 20000; ++i) g.SetMax(t * 20000 + i);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(g.Value(), (kThreads - 1) * 20000 + 19999);
}

// Bucket i counts value <= bounds[i]: an observation exactly equal to a
// bound lands in that bound's bucket, one past it lands in the next.
TEST(HistogramTest, BucketBoundaries) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1.0          -> bucket 0
  h.Observe(1.0);    // == bound 0      -> bucket 0
  h.Observe(1.0001); // > 1.0, <= 10.0  -> bucket 1
  h.Observe(10.0);   // == bound 1      -> bucket 1
  h.Observe(100.0);  // == bound 2      -> bucket 2
  h.Observe(100.5);  // > last bound    -> overflow bucket
  h.Observe(1e9);    //                 -> overflow bucket
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 2u);  // Overflow.
  EXPECT_EQ(h.Count(), 7u);
  EXPECT_NEAR(h.Sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 100.5 + 1e9,
              1e-6);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h({1.0, 2.0});
  h.Observe(0.5);
  h.Observe(5.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0.0);
  for (size_t i = 0; i <= h.bounds().size(); ++i) {
    EXPECT_EQ(h.BucketCount(i), 0u);
  }
}

// Concurrent Observe must keep count, sum (CAS double-add) and the bucket
// tallies exact.
TEST(HistogramTest, ConcurrentObserveIsExact) {
  Histogram h({1.0, 2.0, 3.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(2.5);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.BucketCount(2), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(h.Sum(), 2.5 * kThreads * kPerThread, 1e-3);
}

TEST(BucketLayoutTest, ExponentialBuckets) {
  const std::vector<double> bounds = ExponentialBuckets(1.0, 4.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 4.0);
  EXPECT_DOUBLE_EQ(bounds[2], 16.0);
  EXPECT_DOUBLE_EQ(bounds[3], 64.0);
  const std::vector<double> latency = LatencyBuckets();
  const std::vector<double> size = SizeBuckets();
  EXPECT_TRUE(std::is_sorted(latency.begin(), latency.end()));
  EXPECT_TRUE(std::is_sorted(size.begin(), size.end()));
}

// Interpolated quantiles: rank q*count is located in the cumulative
// bucket counts and linearly interpolated between that bucket's edges.
TEST(HistogramQuantileTest, InterpolatesInsideBuckets) {
  const std::vector<double> bounds = {10.0, 20.0, 30.0};
  const std::vector<uint64_t> buckets = {4, 4, 4, 0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, buckets, 12, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, buckets, 12, 0.25), 7.5);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, buckets, 12, 1.0), 30.0);
}

// A rank landing exactly on a bucket's upper edge reports that bound
// itself — no bleed into the next bucket.
TEST(HistogramQuantileTest, ExactBucketBoundary) {
  const std::vector<double> bounds = {10.0, 20.0, 30.0};
  const std::vector<uint64_t> buckets = {4, 4, 4, 0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, buckets, 12, 4.0 / 12.0), 10.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, buckets, 12, 8.0 / 12.0), 20.0);
}

TEST(HistogramQuantileTest, EmptyOverflowAndClamping) {
  const std::vector<double> bounds = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {0, 0, 0, 0}, 0, 0.5), 0.0);
  // All mass past the last bound: the histogram cannot see past it.
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {0, 0, 0, 5}, 5, 0.5), 30.0);
  // q clamps to [0, 1].
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {4, 4, 4, 0}, 12, 2.0), 30.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {4, 4, 4, 0}, 12, -1.0), 0.0);
}

// Positive-bounded histograms (latency buckets) interpolate the first
// bucket from 0, not from the first bound.
TEST(HistogramQuantileTest, FirstBucketLowerEdgeIsZero) {
  EXPECT_DOUBLE_EQ(HistogramQuantile({10.0}, {2, 0}, 2, 0.5), 5.0);
}

// The renderers surface p50/p95/p99 for any histogram with observations.
TEST(HistogramQuantileTest, RenderersIncludePercentiles) {
  MetricsRegistry registry;
  Histogram* h =
      registry.RegisterHistogram("t.h", "seconds", "a histogram", {1.0, 2.0});
  const std::string empty_text = registry.ToText();
  EXPECT_EQ(empty_text.find("p50"), std::string::npos);
  h->Observe(0.5);
  h->Observe(1.5);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("p50"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(RegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  Counter* a = registry.RegisterCounter("test.c", "events", "help");
  Counter* b = registry.RegisterCounter("test.c", "events", "help");
  EXPECT_EQ(a, b);
  Gauge* g1 = registry.RegisterGauge("test.g", "objects", "help");
  Gauge* g2 = registry.RegisterGauge("test.g", "objects", "help");
  EXPECT_EQ(g1, g2);
  Histogram* h1 =
      registry.RegisterHistogram("test.h", "seconds", "help", {1.0, 2.0});
  Histogram* h2 =
      registry.RegisterHistogram("test.h", "seconds", "help", {1.0, 2.0});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"test.c", "test.g", "test.h"}));
}

// First-touch registration racing registration of the SAME metric from
// sibling threads — the sharded server's shards all reach for their
// metrics on first use — plus hot-path mutators and snapshotters in the
// mix. Registration must be idempotent and pointer-stable under the
// race, and every pre-join mutation must land exactly once (the
// TSan job runs this to catch unsynchronized registry internals; the
// exactness check below catches lost updates on any build).
TEST(RegistryTest, ConcurrentFirstTouchIsIdempotentAndExact) {
  MetricsRegistry registry;
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 200;
  std::vector<Counter*> counters(kThreads, nullptr);
  std::vector<Gauge*> gauges(kThreads, nullptr);
  std::vector<Histogram*> histograms(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (size_t round = 0; round < kRounds; ++round) {
        Counter* c = registry.RegisterCounter("race.c", "events", "help");
        Gauge* g = registry.RegisterGauge("race.g", "objects", "help");
        Histogram* h = registry.RegisterHistogram("race.h", "seconds",
                                                  "help", {1.0, 8.0});
        if (counters[i] == nullptr) {
          counters[i] = c;
          gauges[i] = g;
          histograms[i] = h;
        } else {
          // Pointer-stable across re-registration.
          ASSERT_EQ(counters[i], c);
          ASSERT_EQ(gauges[i], g);
          ASSERT_EQ(histograms[i], h);
        }
        c->Increment();
        g->SetMax(static_cast<uint64_t>(i * kRounds + round));
        h->Observe(static_cast<double>(round % 16));
        if (round % 32 == 0) {
          // Concurrent snapshots see SOME consistent prefix of the
          // counts, never garbage (bounds checked by value).
          for (const MetricSnapshot& metric : registry.Snapshot()) {
            if (metric.name == "race.c") {
              ASSERT_LE(metric.counter, kThreads * kRounds);
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Every thread resolved the same instances.
  for (size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(counters[i], counters[0]);
    EXPECT_EQ(gauges[i], gauges[0]);
    EXPECT_EQ(histograms[i], histograms[0]);
  }
  EXPECT_EQ(counters[0]->Value(), kThreads * kRounds);
  EXPECT_EQ(gauges[0]->Value(), kThreads * kRounds - 1);
  EXPECT_EQ(histograms[0]->Count(), kThreads * kRounds);
  double sum = 0.0;
  for (size_t i = 0; i < kThreads; ++i) {
    for (size_t round = 0; round < kRounds; ++round) {
      sum += static_cast<double>(round % 16);
    }
  }
  EXPECT_DOUBLE_EQ(histograms[0]->Sum(), sum);
}

// A snapshot is an immutable copy: mutations after Snapshot() must not
// show up in the already-taken snapshot.
TEST(RegistryTest, SnapshotIsolation) {
  MetricsRegistry registry;
  Counter* c = registry.RegisterCounter("iso.c", "events", "help");
  Histogram* h =
      registry.RegisterHistogram("iso.h", "seconds", "help", {1.0});
  c->Increment(7);
  h->Observe(0.5);
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  c->Increment(1000);
  h->Observe(0.5);
  h->Observe(100.0);
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].name, "iso.c");
  EXPECT_EQ(snapshot[0].counter, 7u);
  EXPECT_EQ(snapshot[1].name, "iso.h");
  EXPECT_EQ(snapshot[1].count, 1u);
  EXPECT_EQ(snapshot[1].bucket_counts, (std::vector<uint64_t>{1, 0}));
  // Live values did move.
  EXPECT_EQ(c->Value(), 1007u);
  EXPECT_EQ(h->Count(), 3u);
}

TEST(RegistryTest, SnapshotIsNameOrdered) {
  MetricsRegistry registry;
  registry.RegisterCounter("z.last", "events", "help");
  registry.RegisterCounter("a.first", "events", "help");
  registry.RegisterCounter("m.mid", "events", "help");
  const std::vector<std::string> names = registry.Names();
  EXPECT_EQ(names,
            (std::vector<std::string>{"a.first", "m.mid", "z.last"}));
}

TEST(RegistryTest, ResetZeroesKeepingRegistrations) {
  MetricsRegistry registry;
  Counter* c = registry.RegisterCounter("r.c", "events", "help");
  Gauge* g = registry.RegisterGauge("r.g", "objects", "help");
  Histogram* h =
      registry.RegisterHistogram("r.h", "seconds", "help", {1.0});
  c->Increment(3);
  g->Set(9);
  h->Observe(0.5);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(registry.Names().size(), 3u);
}

TEST(RegistryTest, TextAndJsonRender) {
  MetricsRegistry registry;
  registry.RegisterCounter("t.c", "events", "a counter")->Increment(5);
  registry.RegisterGauge("t.g", "objects", "a gauge")->Set(-2);
  registry.RegisterHistogram("t.h", "seconds", "a histogram", {1.0})
      ->Observe(0.5);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("t.c"), std::string::npos);
  EXPECT_NE(text.find("5"), std::string::npos);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"t.c\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"histogram\""), std::string::npos);
  // Rough structural sanity: braces balance.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ScopedTimerTest, ObservesElapsedSecondsAndAllowsNull) {
  Histogram h(LatencyBuckets());
  { ScopedTimer timer(&h); }
  EXPECT_EQ(h.Count(), 1u);
  { ScopedTimer disabled(nullptr); }  // Must be a no-op, not a crash.
  EXPECT_EQ(h.Count(), 1u);
}

// End-to-end: driving a real sweep moves every global sweep counter by
// exactly the engine's own SweepStats delta — the registry is fed from
// SweepStats alone, so between engine calls the two cannot disagree.
TEST(ModbMetricsTest, SweepCountersMatchEngineStats) {
  ModbMetrics& m = M();
  const std::pair<Counter*, uint64_t SweepStats::*> counters[] = {
      {m.sweep_swaps, &SweepStats::swaps},
      {m.sweep_inserts, &SweepStats::inserts},
      {m.sweep_erases, &SweepStats::erases},
      {m.sweep_curve_rebuilds, &SweepStats::curve_rebuilds},
      {m.sweep_crossings_computed, &SweepStats::crossings_computed},
      {m.sweep_events_scheduled, &SweepStats::events_scheduled},
      {m.sweep_events_cancelled, &SweepStats::events_cancelled},
  };
  std::vector<uint64_t> before;
  for (const auto& [counter, field] : counters) {
    before.push_back(counter->Value());
  }
  const uint64_t changes_before = m.sweep_support_changes->Value();
  const uint64_t updates_before = m.future_updates->Value();

  const RandomModOptions options{.num_objects = 30, .dim = 2, .seed = 99};
  MovingObjectDatabase mod = RandomMod(options);
  const UpdateStreamOptions stream{.count = 40, .mean_gap = 0.5,
                                   .seed = 101};
  const std::vector<Update> updates = RandomUpdateStream(mod, options, stream);
  Trajectory query = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
  FutureQueryEngine engine(std::move(mod),
                           std::make_shared<SquaredEuclideanGDistance>(query),
                           0.0);
  KnnKernel kernel(&engine.state(), 3);
  engine.Start();
  auto expect_match = [&](const char* when) {
    for (size_t i = 0; i < std::size(counters); ++i) {
      const auto& [counter, field] = counters[i];
      EXPECT_EQ(counter->Value() - before[i], engine.stats().*field)
          << "counter " << i << " " << when;
    }
    EXPECT_EQ(m.sweep_support_changes->Value() - changes_before,
              engine.stats().SupportChanges())
        << when;
  };
  expect_match("after Start");
  for (const Update& update : updates) {
    ASSERT_TRUE(engine.ApplyUpdate(update).ok());
  }
  expect_match("after the updates");
  ASSERT_TRUE(query.AddTurn(updates.back().time, Vec{1.0, -0.5}).ok());
  engine.ChangeQueryGDistance(
      std::make_shared<SquaredEuclideanGDistance>(query));
  engine.AdvanceTo(updates.back().time + 5.0);
  expect_match("after a query chdir and an advance");

  EXPECT_GT(engine.stats().swaps, 0u);
  EXPECT_GT(engine.stats().events_cancelled, 0u);
  EXPECT_EQ(m.future_updates->Value() - updates_before, updates.size());
  EXPECT_GT(m.sweep_queue_peak->Value(), 0);
  EXPECT_GE(m.sweep_queue_peak->Value(),
            static_cast<int64_t>(engine.stats().max_queue_length));
  // Every counted update was also timed.
  EXPECT_EQ(m.future_update_seconds->Count(), m.future_updates->Value());
}

// docs/METRICS.md must document exactly the registered modb.* names —
// this is the lockstep test ISSUE.md asks for. It extracts every
// `modb.<...>` token in backticks from the doc and set-compares against
// the live registry.
TEST(ModbMetricsTest, MetricsDocMatchesRegistry) {
  M();  // Ensure every modb.* metric is registered.
  std::set<std::string> registered;
  for (const std::string& name : MetricsRegistry::Global().Names()) {
    if (name.rfind("modb.", 0) == 0) registered.insert(name);
  }
  ASSERT_FALSE(registered.empty());

  const std::string doc_path =
      std::string(MODB_SOURCE_DIR) + "/docs/METRICS.md";
  std::ifstream doc(doc_path);
  ASSERT_TRUE(doc.is_open()) << "cannot open " << doc_path;
  std::stringstream buffer;
  buffer << doc.rdbuf();
  const std::string text = buffer.str();

  std::set<std::string> documented;
  size_t pos = 0;
  while ((pos = text.find("`modb.", pos)) != std::string::npos) {
    const size_t end = text.find('`', pos + 1);
    ASSERT_NE(end, std::string::npos);
    documented.insert(text.substr(pos + 1, end - pos - 1));
    pos = end + 1;
  }

  for (const std::string& name : registered) {
    EXPECT_TRUE(documented.count(name))
        << "registered metric missing from docs/METRICS.md: " << name;
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(registered.count(name))
        << "docs/METRICS.md documents unregistered metric: " << name;
  }
}

}  // namespace
}  // namespace obs
}  // namespace modb
