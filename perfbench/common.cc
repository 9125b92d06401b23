#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "baseline/naive.h"
#include "bench.h"
#include "obs/metrics.h"

namespace perfbench {

namespace fs = std::filesystem;
using modb::ObjectId;

double NowMicros() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

void Phase(const char* name) {
  static double last = 0.0;
  const double now = NowMicros();
  std::printf("phase %s: %.3f s\n", name, (now - last) * 1e-6);
  last = now;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

RegistrySnapshot RegistrySnapshot::Take() {
  RegistrySnapshot snap;
  for (const modb::obs::MetricSnapshot& m :
       modb::obs::MetricsRegistry::Global().Snapshot()) {
    double value = 0.0;
    switch (m.type) {
      case modb::obs::MetricType::kCounter:
        value = static_cast<double>(m.counter);
        break;
      case modb::obs::MetricType::kGauge:
        value = static_cast<double>(m.gauge);
        break;
      case modb::obs::MetricType::kHistogram:
        value = static_cast<double>(m.count);
        break;
    }
    snap.values_[m.name] = value;
  }
  return snap;
}

double RegistrySnapshot::Get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench: no registry metric named %s\n",
                 name.c_str());
    std::abort();
  }
  return it->second;
}

namespace {

// Relative tolerance of a near-tie, as in the differential fuzzer.
constexpr double kValueTol = 1e-6;
// The oracle window [t, t + kWindow]: its first cell is the answer just
// after t, which is what a sweep advanced to t holds (right-continuous).
constexpr double kWindow = 1e-7;

std::map<ObjectId, double> ValuesAt(const modb::MovingObjectDatabase& mod,
                                     const modb::GDistance& gdist,
                                     double t) {
  std::map<ObjectId, double> values;
  for (const auto& [oid, trajectory] : mod.objects()) {
    if (!trajectory.DefinedAt(t)) continue;
    values.emplace(oid, gdist.Curve(trajectory).Eval(t));
  }
  return values;
}

bool NearTie(double value, double boundary) {
  return std::fabs(value - boundary) <=
         kValueTol * (1.0 + std::fabs(boundary));
}

// The sub-database of the objects whose value is at most `cut`.
modb::MovingObjectDatabase Candidates(
    const modb::MovingObjectDatabase& mod,
    const std::map<ObjectId, double>& values, double cut) {
  modb::MovingObjectDatabase sub(mod.dim(), mod.last_update_time());
  for (const auto& [oid, value] : values) {
    if (value > cut) continue;
    const modb::Status restored = sub.Restore(oid, *mod.Find(oid));
    if (!restored.ok()) {
      std::fprintf(stderr, "perfbench: restore o%lld: %s\n",
                   static_cast<long long>(oid), restored.ToString().c_str());
      std::abort();
    }
  }
  return sub;
}

std::string Compare(const std::map<ObjectId, double>& values,
                    const std::set<ObjectId>& got,
                    const std::set<ObjectId>& expected, double boundary) {
  std::vector<ObjectId> diff;
  std::set_symmetric_difference(got.begin(), got.end(), expected.begin(),
                                expected.end(), std::back_inserter(diff));
  for (ObjectId oid : diff) {
    auto it = values.find(oid);
    if (it == values.end() || !NearTie(it->second, boundary)) {
      std::ostringstream why;
      why << "o" << oid << (got.count(oid) ? " answered" : " missing")
          << " (value "
          << (it == values.end() ? std::nan("") : it->second)
          << ", boundary " << boundary << "); answer size " << got.size()
          << " vs oracle " << expected.size();
      return why.str();
    }
  }
  return "";
}

}  // namespace

std::string CheckKnn(const modb::MovingObjectDatabase& mod,
                     const modb::GDistance& gdist, size_t k, double t,
                     const std::set<ObjectId>& answer) {
  const std::map<ObjectId, double> values = ValuesAt(mod, gdist, t);
  const size_t expected_size = std::min(k, values.size());
  if (expected_size == 0) return answer.empty() ? "" : "answer not empty";
  std::vector<double> sorted;
  sorted.reserve(values.size());
  for (const auto& [oid, value] : values) sorted.push_back(value);
  std::nth_element(sorted.begin(), sorted.begin() + (expected_size - 1),
                   sorted.end());
  const double boundary = sorted[expected_size - 1];
  const double cut = boundary + 2 * kValueTol * (1.0 + std::fabs(boundary));
  const modb::NaiveResult naive = modb::NaiveKnnTimeline(
      Candidates(mod, values, cut), gdist, k,
      modb::TimeInterval(t, t + kWindow));
  if (answer.size() != expected_size) {
    return "answer size " + std::to_string(answer.size()) + ", expected " +
           std::to_string(expected_size);
  }
  return Compare(values, answer, naive.timeline.AnswerAt(t), boundary);
}

std::string CheckWithin(const modb::MovingObjectDatabase& mod,
                        const modb::GDistance& gdist, double threshold,
                        double t, const std::set<ObjectId>& answer) {
  const std::map<ObjectId, double> values = ValuesAt(mod, gdist, t);
  const double cut =
      threshold + 2 * kValueTol * (1.0 + std::fabs(threshold));
  const modb::NaiveResult naive = modb::NaiveWithinTimeline(
      Candidates(mod, values, cut), gdist, threshold,
      modb::TimeInterval(t, t + kWindow));
  return Compare(values, answer, naive.timeline.AnswerAt(t), threshold);
}

double ReportedPercentile(const std::vector<double>& values, double p,
                          const std::string& name) {
  const std::optional<double> v = TailPercentile(values, p);
  if (!v.has_value() && !values.empty()) {
    std::printf("note: %s not reported: %zu samples, %zu beyond p%g "
                "(need %zu)\n",
                name.c_str(), values.size(), SamplesBeyond(values.size(), p),
                p, kMinTail);
  }
  return v.value_or(0.0);
}

void AddEndToEnd(double setup_s, const std::vector<Sample>& writes,
                 double start_us, double peak_rss_mb, ResultLine* metrics) {
  std::vector<double> latencies;
  for (const Sample& s : writes) latencies.push_back(s.latency_us);
  PrintLatency("write", latencies);
  metrics->Add("setup_s", setup_s, "s");
  metrics->Add("updates_per_s",
               BlockedRate(writes, start_us, kBlocks), "1/s");
  metrics->Add("write_p50_us", BlockedWrite(writes, 50), "us");
  metrics->Add("peak_rss_mb", peak_rss_mb, "MiB");
}

double BlockedWrite(const std::vector<Sample>& writes, double p) {
  const std::optional<double> v = BlockedPercentile(writes, p, kBlocks);
  if (!v.has_value() && !writes.empty()) {
    std::printf("note: write p%g not reported: %zu samples\n", p,
                writes.size());
  }
  return v.value_or(0.0);
}

modb::Vec DensestPoint(const std::vector<modb::Vec>& candidates,
                       const std::vector<modb::Vec>& points, double radius) {
  size_t best = 0, best_count = 0;
  for (size_t c = 0; c < candidates.size(); ++c) {
    size_t count = 0;
    for (const modb::Vec& p : points) {
      const double dx = p[0] - candidates[c][0], dy = p[1] - candidates[c][1];
      if (dx * dx + dy * dy <= radius * radius) ++count;
    }
    if (count > best_count) {
      best = c;
      best_count = count;
    }
  }
  return candidates[best];
}

double RankThreshold(const modb::Vec& center,
                     const std::vector<modb::Vec>& points, size_t rank) {
  std::vector<double> d2;
  for (const modb::Vec& p : points) {
    const double dx = p[0] - center[0], dy = p[1] - center[1];
    d2.push_back(dx * dx + dy * dy);
  }
  std::sort(d2.begin(), d2.end());
  return 0.5 * (d2[rank - 1] + d2[rank]);
}

void PrintSlowest(const std::vector<SpanRecord>& traced) {
  if (traced.empty()) return;
  const SpanRecord& slowest = *std::max_element(
      traced.begin(), traced.end(),
      [](const SpanRecord& a, const SpanRecord& b) {
        return a.call.length() < b.call.length();
      });
  std::printf("slowest traced write: op id %llu, %.1f us\n",
              static_cast<unsigned long long>(slowest.op_id),
              slowest.call.length());
}

void PrintLatency(const std::string& name, const std::vector<double>& us) {
  auto show = [&](double p) {
    const std::optional<double> v = TailPercentile(us, p);
    return v ? std::to_string(*v) : std::string("n/a");
  };
  std::printf("%s: n=%zu p50=%s p90=%s p99=%s max=%s (us)\n", name.c_str(),
              us.size(), show(50).c_str(), show(90).c_str(),
              show(99).c_str(),
              us.empty() ? "n/a"
                         : std::to_string(*std::max_element(us.begin(),
                                                            us.end()))
                               .c_str());
}

}  // namespace perfbench
