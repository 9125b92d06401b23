#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared harness for the workloads: arguments, the run result, the
// monotonic clock, process and directory probes, registry deltas, and the
// answer checks against the naive oracle (src/baseline/naive.h).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gdist/gdistance.h"
#include "obs/trace.h"
#include "stats.h"
#include "trajectory/mod.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for databases, inside the checkout; removed after.
  std::string work_dir;
};

struct Result {
  bool correct = true;
  OpCounter ops;
  ResultLine metrics;
  // Why `correct` is false, one line each (printed, never hidden).
  std::vector<std::string> mismatches;

  void Mismatch(const std::string& what) {
    correct = false;
    if (mismatches.size() < 16) mismatches.push_back(what);
  }
};

Result RunFleetLive(const Args& args);
Result RunSweepDense(const Args& args);

// End-to-end figures are medians over up to this many consecutive blocks
// of a run's samples (stats.h, BlockedPercentile/BlockedRate).
inline constexpr size_t kBlocks = 16;

// peak_rss_mb is the peak resident memory when this many updates of the
// timed loop have been acknowledged (or at its end, if it acks fewer).
// The database keeps every trajectory's history, so memory grows with
// updates applied: sampled after a fixed number of them, a faster server
// does not read as a hungrier one. The benchmark's checks after the loop
// (oracle, reopen, recount) are left out too.
inline constexpr uint64_t kRssUpdates = 2000;

// Microseconds on the steady clock since the first call.
double NowMicros();

// In a traced run, bench tracing is on in every other 250 ms phase, so
// its cost is an interleaved on/off A/B within one process.
inline bool SpanLogOn(bool trace, double elapsed_us) {
  return trace && static_cast<uint64_t>(elapsed_us / 250e3) % 2 == 1;
}

// A bench-side span: one public call's interval under the id of the
// operation it carried out.
struct SpanRecord {
  uint64_t op_id = 0;
  Interval call;
};

// Times `call`, a public call that carries out one operation. With
// `traced` the call runs under a root modb::obs::TraceSpan named `name`
// (the name of the call it wraps), so every flight-recorder record the
// call makes, in every layer, carries that span's trace id: the
// operation id in the returned record (0 when untraced). The interval
// includes the span's own cost.
template <typename Fn>
SpanRecord TimedCall(bool traced, modb::obs::SpanName name, Fn&& call) {
  SpanRecord record;
  record.call.start = NowMicros();
  if (traced) {
    modb::obs::TraceSpan span(name);
    record.op_id = span.trace_id();
    call();
  } else {
    call();
  }
  record.call.end = NowMicros();
  return record;
}

// num / den, or 0 when den is not positive (a layer that did no work).
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

// Prints "phase NAME: S s" — the wall time since the previous call — so a
// run's time budget (inputs, set-up, loop, checks, replays) is visible.
void Phase(const char* name);

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

// Total bytes of the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

// Removes `dir` recursively (no error if absent).
void RemoveDir(const std::string& dir);

// Counter/gauge values and histogram counts of the global metrics registry
// by name, so a phase's counts are the delta of two snapshots.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take();
  double Get(const std::string& name) const;
  // this - earlier, for one name.
  double Since(const RegistrySnapshot& earlier,
               const std::string& name) const {
    return Get(name) - earlier.Get(name);
  }

 private:
  std::map<std::string, double> values_;
};

// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 5;

// Median of kSetupRepetitions set-ups: each call of `setup` is timed, and
// `teardown` undoes it, untimed, before the next one. The last set-up's
// product is kept by the caller. Prints every repetition.
template <typename Setup, typename Teardown>
double MedianSetupSeconds(Setup&& setup, Teardown&& teardown) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    if (i > 0) teardown();
    const double start = NowMicros();
    setup();
    seconds.push_back((NowMicros() - start) * 1e-6);
  }
  std::printf("setup_s repetitions:");
  for (double s : seconds) std::printf(" %.4f", s);
  std::printf("\n");
  return Median(seconds);
}

// Checks a standing query's answer at `t` against the naive cell
// decomposition over `mod`. The oracle runs on the objects whose g-distance
// at t could place them in the answer (every object at or below the k-th
// smallest value, or the threshold, plus a relative margin) — the others
// cannot change a kNN or within answer — so the Θ(N²) oracle stays
// affordable at N = 65,536. Disagreement is allowed only on near-ties
// (values within 1e-6 relative of the decision boundary), the same rule
// the differential fuzzer uses. Returns "" on agreement, else why.
std::string CheckKnn(const modb::MovingObjectDatabase& mod,
                     const modb::GDistance& gdist, size_t k, double t,
                     const std::set<modb::ObjectId>& answer);
std::string CheckWithin(const modb::MovingObjectDatabase& mod,
                        const modb::GDistance& gdist, double threshold,
                        double t, const std::set<modb::ObjectId>& answer);

// Percentile for a metric that must be reported: the value, or 0 plus a
// printed note when the sample is too small (0 when it is empty).
double ReportedPercentile(const std::vector<double>& values, double p,
                          const std::string& name);

// The end-to-end metrics every workload reports, from the write samples
// of a run that started at `start_us`: setup_s, updates_per_s,
// write_p50_us, peak_rss_mb.
void AddEndToEnd(double setup_s, const std::vector<Sample>& writes,
                 double start_us, double peak_rss_mb, ResultLine* metrics);

// The blocked p-th percentile of write latency (0 when no block can
// report it), as the end-to-end metrics compute it.
double BlockedWrite(const std::vector<Sample>& writes, double p);

// The position, among `candidates`, with the most of `points` within
// `radius`: a hot spot of a clustered layout, found the same way for
// every seed so that workloads cost alike across seeds.
modb::Vec DensestPoint(const std::vector<modb::Vec>& candidates,
                       const std::vector<modb::Vec>& points, double radius);

// The squared distance from `center` splitting `points` into the `rank`
// nearest and the rest (midway between ranks `rank` and `rank` + 1): a
// within threshold whose answer starts with `rank` members.
double RankThreshold(const modb::Vec& center,
                     const std::vector<modb::Vec>& points, size_t rank);

// Prints "name: n samples, p50 ..., p99 ..." for a latency sample.
void PrintLatency(const std::string& name, const std::vector<double>& us);

// Prints the slowest of the bench-traced calls with its operation id, the
// trace id its flight-recorder records carry.
void PrintSlowest(const std::vector<SpanRecord>& traced);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
