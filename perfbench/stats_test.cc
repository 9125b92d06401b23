// Tests for the benchmark's own arithmetic (stats.h). Run through
// `python3 perfbench/run.py --selftest`; exits 1 if any check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void PercentileNeedsTenSamplesBeyond() {
  // p99 of 1..1000 is rank 990; exactly 10 samples lie beyond it.
  Expect(SamplesBeyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  const auto p99 = TailPercentile(OneTo(1000), 99);
  Expect(p99.has_value() && Near(*p99, 990), "p99 of 1..1000 is 990");
  // 999 samples leave only 9 beyond rank 990: not reported.
  Expect(!TailPercentile(OneTo(999), 99).has_value(),
         "p99 withheld with 9 samples beyond");
  // p50 needs 20 samples (rank 10, 10 beyond); 19 is one short.
  const auto p50 = TailPercentile(OneTo(20), 50);
  Expect(p50.has_value() && Near(*p50, 10), "p50 of 1..20 is 10");
  Expect(!TailPercentile(OneTo(19), 50).has_value(),
         "p50 withheld with 9 samples beyond");
  Expect(!TailPercentile({}, 50).has_value(), "no samples, no percentile");
  // Order of the input does not matter.
  std::vector<double> shuffled = OneTo(1000);
  std::swap(shuffled[3], shuffled[700]);
  Expect(Near(*TailPercentile(shuffled, 99), 990), "p99 is order-free");
  Expect(Near(Median({3, 1, 2}), 2), "odd median");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "even median");
}

void BlocksTakeTheMedianBlock() {
  Expect(MinSamples(99) == 1000 && MinSamples(50) == 20, "min samples");
  // Five blocks of 1000 samples; block b's latencies are 1000*b + 1..1000,
  // except block 3, which a burst of interference made 100x slower.
  std::vector<Sample> samples;
  for (int b = 0; b < 5; ++b) {
    for (int i = 1; i <= 1000; ++i) {
      const double latency = (b == 3 ? 100.0 : 1.0) * (1000.0 * b + i);
      samples.push_back({1e6 * b + i, latency, 1.0});
    }
  }
  // Block p99s: 990, 1990, 2990, 399000, 4990 -> median 2990.
  const auto p99 = BlockedPercentile(samples, 99, 5);
  Expect(p99.has_value() && Near(*p99, 2990), "median of block p99s");
  // 1999 samples make one block only (two would need 2000).
  samples.resize(1999);
  const auto one = BlockedPercentile(samples, 99, 5);
  // Rank ceil(0.99 * 1999) = 1980 of 1..1000, 1001..1999.
  Expect(one.has_value() && Near(*one, 1980), "one block: its p99");
  samples.resize(999);
  Expect(!BlockedPercentile(samples, 99, 5).has_value(),
         "no block can report p99");
  // Rates: blocks of 10 updates ending at 1 s, 2 s, 2.5 s, 12.5 s, 13.5 s
  // -> 10, 10, 20, 1, 10 updates/s -> median 10.
  std::vector<Sample> timed;
  for (double end : {1.0, 2.0, 2.5, 12.5, 13.5}) {
    timed.push_back({end * 1e6, 0.0, 10.0});
  }
  Expect(Near(BlockedRate(timed, 0.0, 5), 10.0), "median block rate");
  Expect(Near(BlockedRate(timed, 0.0, 1), 50.0 / 13.5), "one block rate");
  // A block's rate counts its samples' updates, not its samples: 4 commits
  // of 8 updates each per second -> 32 updates/s.
  std::vector<Sample> batched;
  for (int i = 1; i <= 40; ++i) batched.push_back({250e3 * i, 1e3, 8.0});
  Expect(Near(BlockedRate(batched, 0.0, 4), 32.0), "updates per second");
}

void FailuresCountAgainstAttempts() {
  OpCounter ops;
  for (int i = 0; i < 97; ++i) ops.Record(true);
  for (int i = 0; i < 3; ++i) ops.Record(false);  // Refused or failed.
  Expect(ops.attempted() == 100, "refused ops stay in attempts");
  Expect(ops.failed() == 3, "refused ops are failures");
  Expect(ops.succeeded() == 97, "succeeded = attempted - failed");
  Expect(Near(ops.ErrorRate(), 0.03), "error_rate = failed / attempted");
  Expect(Near(OpCounter().ErrorRate(), 0.0), "no attempts, no errors");
}

void SelfTimeIsParentMinusCoveredChildren() {
  const std::vector<Interval> parent = {{0, 100}};
  // Disjoint children inside the parent.
  Expect(Near(SelfTime(parent, {{10, 20}, {30, 50}}), 70),
         "self = 100 - (10 + 20)");
  // Overlapping children (parallel fan-out) are covered once.
  Expect(Near(SelfTime(parent, {{10, 40}, {20, 50}}), 60),
         "overlapping children count once");
  // A child sticking out of the parent covers only its inside part.
  Expect(Near(SelfTime(parent, {{90, 130}}), 90),
         "child clipped to parent");
  Expect(Near(SelfTime(parent, {{150, 160}}), 100),
         "child outside parent covers nothing");
  Expect(Near(SelfTime(parent, {{-10, 200}}), 0),
         "fully covered parent has zero self time");
  Expect(Near(SelfTime(parent, {}), 100), "no children: all self");
  // A parent of several spans (phase 1 and phase 2) with a gap.
  Expect(Near(SelfTime({{0, 10}, {20, 30}}, {{5, 25}}), 10),
         "gap between parent spans is not covered");
  Expect(Near(UnionLength({{0, 10}, {5, 15}, {20, 21}}), 16),
         "union length");
  // Replayed children are aligned to the parent's start first.
  const std::vector<Interval> aligned = AlignTo({{1000, 1010}, {1005, 1030}},
                                                0);
  Expect(Near(aligned[0].start, 0) && Near(aligned[1].end, 30),
         "align shifts the earliest child to the origin");
  Expect(Near(SelfTime(parent, aligned), 70), "aligned children covered");
}

void ResultLineHasExactlyTheContractKeys() {
  ResultLine line;
  line.Add("setup_s", 0.5, "s");
  line.Add("write_p50_us", 123.456789012345, "us");
  const std::string json = line.ToJson(true, 10, 0);
  Expect(json.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
                    "\"metrics\": {",
                    0) == 0,
         "result line keys: " + json);
  Expect(json.find("123.45678901234") != std::string::npos,
         "values keep all their digits");
  Expect(line.NonFinite().empty(), "finite values pass");
  line.Add("bad", std::nan(""), "s");
  Expect(line.NonFinite() == "bad", "NaN is flagged");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileNeedsTenSamplesBeyond();
  perfbench::BlocksTakeTheMedianBlock();
  perfbench::FailuresCountAgainstAttempts();
  perfbench::SelfTimeIsParentMinusCoveredChildren();
  perfbench::ResultLineHasExactlyTheContractKeys();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench stats tests: all passed\n");
  return 0;
}
