#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles that refuse to extrapolate,
// failure counting, self time from span intervals, and the result line.
// Depends on nothing in modb, so stats_test.cc checks it in isolation.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples lie
// strictly beyond it (choosing-metrics rule: p99 needs >= 1000 samples).
inline constexpr size_t kMinTail = 10;

// Nearest-rank percentile (1-based rank ceil(p/100 * n)) of `values`, or
// nullopt when fewer than kMinTail samples rank above it. p in (0, 100].
std::optional<double> TailPercentile(std::vector<double> values, double p);

// Samples ranked strictly above the nearest-rank p-th percentile of n.
size_t SamplesBeyond(size_t n, double p);

// Median of `values` (mean of the middle two for even n); 0 when empty.
double Median(std::vector<double> values);

// Fewest samples for which TailPercentile(p) reports (p99: 1000).
size_t MinSamples(double p);

// One timed operation: when it ended, how long it took, and how many
// updates it carried (a batch commit carries several).
struct Sample {
  double end_us = 0.0;
  double latency_us = 0.0;
  double updates = 1.0;
};

// Robust per-run figures on a noisy host: the samples, ordered by end
// time, are cut into consecutive equal-count blocks and the figure is the
// median over blocks, so a burst of interference that spoils one block
// does not move the run's value.
//
// Median over blocks of each block's p-th percentile, with as many blocks
// as possible up to `max_blocks` such that every block can report it;
// nullopt when even one block cannot.
std::optional<double> BlockedPercentile(std::vector<Sample> samples,
                                        double p, size_t max_blocks);
// Median over `blocks` blocks of updates per second. A block's duration
// runs from the previous block's last end (the first from `start_us`) to
// its own last end.
double BlockedRate(std::vector<Sample> samples, double start_us,
                   size_t blocks);

// Operations attempted against operations refused or failed. A refused
// operation is a failure: it counts against error_rate, never silently
// drops out of the denominator.
class OpCounter {
 public:
  void Record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t succeeded() const { return attempted_ - failed_; }
  // failed / attempted; 0 when nothing was attempted.
  double ErrorRate() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// A closed time interval on one clock, in microseconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
  double length() const { return end > start ? end - start : 0.0; }
};

// Length of the union of `intervals` (overlaps counted once).
double UnionLength(std::vector<Interval> intervals);

// The part of the union of `parents` that the union of `children` covers.
double CoveredLength(const std::vector<Interval>& parents,
                     const std::vector<Interval>& children);

// A layer's self time: the union of its own spans minus the part of it
// its child spans (the calls it makes one layer down) cover. Children
// outside every parent interval cover nothing.
double SelfTime(const std::vector<Interval>& parents,
                const std::vector<Interval>& children);

// Shifts `spans` so the earliest one starts at `origin`. Spans measured in
// a replay of one layer live on that replay's clock; aligning them with
// their parent's start places them inside the parent's interval.
std::vector<Interval> AlignTo(std::vector<Interval> spans, double origin);

// The benchmark's result line: exactly the keys correct, attempted, failed
// and metrics, each metric {"value": ..., "unit": ...} printed with all
// its digits.
class ResultLine {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // The value of `name`, or nullopt if absent.
  std::optional<double> Get(const std::string& name) const;
  // Empty when every value is finite; else the offending metric names.
  std::string NonFinite() const;
  std::string ToJson(bool correct, uint64_t attempted,
                     uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
