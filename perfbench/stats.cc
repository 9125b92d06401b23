#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// 1-based nearest rank of the p-th percentile among n samples.
size_t NearestRank(size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

std::optional<double> TailPercentile(std::vector<double> values, double p) {
  if (values.empty() || SamplesBeyond(values.size(), p) < kMinTail) {
    return std::nullopt;
  }
  const size_t index = NearestRank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

size_t MinSamples(double p) {
  size_t n = 1;
  while (SamplesBeyond(n, p) < kMinTail) ++n;
  return n;
}

namespace {

void SortByEnd(std::vector<Sample>* samples) {
  std::sort(samples->begin(), samples->end(),
            [](const Sample& a, const Sample& b) {
              return a.end_us < b.end_us;
            });
}

// [begin, end) of block b of `blocks` equal-count blocks over n samples.
std::pair<size_t, size_t> Block(size_t n, size_t blocks, size_t b) {
  return {n * b / blocks, n * (b + 1) / blocks};
}

}  // namespace

std::optional<double> BlockedPercentile(std::vector<Sample> samples,
                                        double p, size_t max_blocks) {
  const size_t blocks = std::min(max_blocks, samples.size() / MinSamples(p));
  if (blocks == 0) return std::nullopt;
  SortByEnd(&samples);
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b) {
    const auto [lo, hi] = Block(samples.size(), blocks, b);
    std::vector<double> latencies;
    for (size_t i = lo; i < hi; ++i) latencies.push_back(samples[i].latency_us);
    per_block.push_back(*TailPercentile(std::move(latencies), p));
  }
  return Median(per_block);
}

double BlockedRate(std::vector<Sample> samples, double start_us,
                   size_t blocks) {
  blocks = std::min(blocks, samples.size());
  if (blocks == 0) return 0.0;
  SortByEnd(&samples);
  std::vector<double> rates;
  double from = start_us;
  for (size_t b = 0; b < blocks; ++b) {
    const auto [lo, hi] = Block(samples.size(), blocks, b);
    double updates = 0.0;
    for (size_t i = lo; i < hi; ++i) updates += samples[i].updates;
    const double to = samples[hi - 1].end_us;
    if (to > from) rates.push_back(updates / ((to - from) * 1e-6));
    from = to;
  }
  return Median(rates);
}

double OpCounter::ErrorRate() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

namespace {

// Sorted, disjoint union of non-empty intervals.
std::vector<Interval> Merged(std::vector<Interval> intervals) {
  intervals.erase(std::remove_if(intervals.begin(), intervals.end(),
                                 [](const Interval& i) {
                                   return i.length() <= 0.0;
                                 }),
                  intervals.end());
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::vector<Interval> merged;
  for (const Interval& i : intervals) {
    if (!merged.empty() && i.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, i.end);
    } else {
      merged.push_back(i);
    }
  }
  return merged;
}

}  // namespace

double UnionLength(std::vector<Interval> intervals) {
  double total = 0.0;
  for (const Interval& i : Merged(std::move(intervals))) total += i.length();
  return total;
}

double CoveredLength(const std::vector<Interval>& parents,
                     const std::vector<Interval>& children) {
  const std::vector<Interval> p = Merged(parents);
  const std::vector<Interval> c = Merged(children);
  double covered = 0.0;
  size_t j = 0;
  for (const Interval& parent : p) {
    while (j < c.size() && c[j].end <= parent.start) ++j;
    for (size_t k = j; k < c.size() && c[k].start < parent.end; ++k) {
      covered += std::max(0.0, std::min(parent.end, c[k].end) -
                                   std::max(parent.start, c[k].start));
    }
  }
  return covered;
}

double SelfTime(const std::vector<Interval>& parents,
                const std::vector<Interval>& children) {
  return UnionLength(parents) - CoveredLength(parents, children);
}

std::vector<Interval> AlignTo(std::vector<Interval> spans, double origin) {
  if (spans.empty()) return spans;
  double earliest = spans.front().start;
  for (const Interval& s : spans) earliest = std::min(earliest, s.start);
  const double shift = origin - earliest;
  for (Interval& s : spans) {
    s.start += shift;
    s.end += shift;
  }
  return spans;
}

void ResultLine::Add(const std::string& name, double value,
                     const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::optional<double> ResultLine::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return std::nullopt;
}

std::string ResultLine::NonFinite() const {
  std::string bad;
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) bad += (bad.empty() ? "" : ",") + m.name;
  }
  return bad;
}

std::string ResultLine::ToJson(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
