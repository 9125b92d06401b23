#ifndef MODB_BENCH_BENCH_UTIL_H_
#define MODB_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace modb {
namespace bench {

// Wall-clock seconds for one invocation of fn.
template <typename Fn>
double MeasureSeconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

// Machine-readable mirror of the printed tables plus the process-wide
// metrics. A bench main constructs one from `--json out.json` (empty path
// → disabled, zero overhead) and hands it to each Table; the document is
// written when the sink is destroyed.
//
// Output schema (every bench binary accepts --json; all but
// bench_gdistance — which forwards to google-benchmark's JSON reporter —
// emit this document; see EXPERIMENTS.md, "Reading the benchmarks"):
//
//   {
//     "schema": "modb-bench-v1",
//     "tables": [                 // one entry per printed table
//       {"name": "...",           // table name passed to Table(...)
//        "headers": ["...", ...], // column names, as printed
//        "rows": [[...], ...]}    // numeric rows, %.17g round-trip
//     ],
//     "metrics": {                // MetricsRegistry::Global() at exit
//       "<metric name>": {"type": "counter"|"gauge", "unit": "...",
//                         "value": N}
//       "<metric name>": {"type": "histogram", "unit": "...",
//                         "count": N, "sum": S,
//                         "bounds": [...], "buckets": [...]}
//       // docs/METRICS.md documents every name.
//     }
//   }
//
// The metrics block is cumulative over the whole process run (several
// tables of one bench share it).
class JsonSink {
 public:
  // Scans argv for "--json PATH"; returns "" (disabled) if absent.
  static std::string PathFromArgs(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") return argv[i + 1];
    }
    return "";
  }

  explicit JsonSink(std::string path) : path_(std::move(path)) {}
  JsonSink(const JsonSink&) = delete;
  JsonSink& operator=(const JsonSink&) = delete;

  bool enabled() const { return !path_.empty(); }

  void BeginTable(std::string name, std::vector<std::string> headers) {
    if (!enabled()) return;
    tables_.push_back({std::move(name), std::move(headers), {}});
  }

  void Row(const std::vector<double>& values) {
    if (!enabled() || tables_.empty()) return;
    tables_.back().rows.push_back(values);
  }

  ~JsonSink() {
    if (!enabled()) return;
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(out, "{\n  \"schema\": \"modb-bench-v1\",\n  \"tables\": [");
    for (size_t t = 0; t < tables_.size(); ++t) {
      const TableDump& table = tables_[t];
      std::fprintf(out, "%s\n    {\n      \"name\": \"%s\",\n"
                        "      \"headers\": [",
                   t == 0 ? "" : ",", Escaped(table.name).c_str());
      for (size_t h = 0; h < table.headers.size(); ++h) {
        std::fprintf(out, "%s\"%s\"", h == 0 ? "" : ", ",
                     Escaped(table.headers[h]).c_str());
      }
      std::fprintf(out, "],\n      \"rows\": [");
      for (size_t r = 0; r < table.rows.size(); ++r) {
        std::fprintf(out, "%s\n        [", r == 0 ? "" : ",");
        for (size_t c = 0; c < table.rows[r].size(); ++c) {
          std::fprintf(out, "%s%.17g", c == 0 ? "" : ", ",
                       table.rows[r][c]);
        }
        std::fprintf(out, "]");
      }
      std::fprintf(out, "\n      ]\n    }");
    }
    std::fprintf(out, "\n  ],\n  \"metrics\": %s\n}\n",
                 obs::MetricsRegistry::Global().ToJson("  ").c_str());
    std::fclose(out);
  }

 private:
  struct TableDump {
    std::string name;
    std::vector<std::string> headers;
    std::vector<std::vector<double>> rows;
  };

  static std::string Escaped(const std::string& text) {
    std::string out;
    for (char c : text) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::vector<TableDump> tables_;
};

// Dumps the process-wide flight recorder as Chrome trace-event JSON at
// exit. A bench main constructs one from `--trace out.json` (empty path →
// disabled); tracing itself is always on, this only controls whether the
// ring is written somewhere. Open the file in Perfetto (ui.perfetto.dev)
// to see the last ~16k spans of the run — docs/TRACING.md walks through
// reading one.
class TraceFile {
 public:
  // Scans argv for "--trace PATH"; returns "" (disabled) if absent.
  static std::string PathFromArgs(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--trace") return argv[i + 1];
    }
    return "";
  }

  // Touching Global() and the clock here allocates the ring and runs the
  // one-time TSC calibration before any timed region, so the first
  // benchmark row doesn't pay for either.
  explicit TraceFile(std::string path) : path_(std::move(path)) {
    (void)obs::FlightRecorder::Global().capacity();
    (void)obs::TraceNowMicros();
  }
  TraceFile(const TraceFile&) = delete;
  TraceFile& operator=(const TraceFile&) = delete;

  ~TraceFile() {
    if (path_.empty()) return;
    const Status dumped = obs::FlightRecorder::Global().DumpToFile(path_);
    if (!dumped.ok()) {
      std::fprintf(stderr, "bench: %s\n", dumped.ToString().c_str());
    }
  }

 private:
  std::string path_;
};

// Minimal fixed-width table printer: the benches print paper-style rows;
// EXPERIMENTS.md records the shapes. With a sink, every row is mirrored
// into the JSON document too.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : Table(nullptr, "table", std::move(headers)) {}

  Table(JsonSink* sink, std::string name, std::vector<std::string> headers)
      : headers_(std::move(headers)), sink_(sink) {
    if (sink_ != nullptr) sink_->BeginTable(std::move(name), headers_);
    for (const auto& h : headers_) {
      std::printf("%16s", h.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < headers_.size(); ++i) std::printf("%16s", "----");
    std::printf("\n");
  }

  void Row(const std::vector<double>& values) {
    if (sink_ != nullptr) sink_->Row(values);
    for (double v : values) {
      if (v == static_cast<int64_t>(v) && std::fabs(v) < 1e15) {
        std::printf("%16lld", static_cast<long long>(v));
      } else {
        std::printf("%16.4g", v);
      }
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  JsonSink* sink_ = nullptr;
};

inline double Log2(double x) { return std::log2(std::max(2.0, x)); }

}  // namespace bench
}  // namespace modb

#endif  // MODB_BENCH_BENCH_UTIL_H_
