// Experiment E10 (Lemma 9): the event queue keeps only the earliest
// intersection per *currently adjacent* pair, which bounds its length by
// N-1. The run reports the sweep's support changes m and the measured peak
// queue length against that bound. EXPERIMENTS.md E10 records the ablation
// on this workload that chose the indexed heap over the paper's leftist
// tree.

#include <memory>

#include "bench/bench_util.h"
#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "queries/knn.h"
#include "workload/generator.h"

namespace modb {
namespace {

struct RunStats {
  double seconds;
  uint64_t support_changes;
  size_t max_queue;
  size_t live_at_peak;  // Objects in the order when the peak was reached.
};

RunStats RunWorkload(size_t n) {
  const RandomModOptions options{.num_objects = n, .dim = 2, .seed = 61};
  const UpdateStreamOptions stream{.count = 300,
                                   .mean_gap = 0.02,
                                   .chdir_weight = 0.8,
                                   .new_weight = 0.1,
                                   .terminate_weight = 0.1,
                                   .seed = 67};
  MovingObjectDatabase mod = RandomMod(options);
  const std::vector<Update> updates = RandomUpdateStream(mod, options, stream);
  FutureQueryEngine engine(std::move(mod),
                           std::make_shared<SquaredEuclideanGDistance>(
                               Trajectory::Stationary(0.0, Vec{0.0, 0.0})),
                           0.0);
  KnnKernel kernel(&engine.state(), 5);
  const double seconds = bench::MeasureSeconds([&] {
    engine.Start();
    for (const Update& update : updates) {
      const Status status = engine.ApplyUpdate(update);
      MODB_CHECK(status.ok()) << status.ToString();
    }
    engine.AdvanceTo(engine.now() + 5.0);
  });
  return RunStats{seconds, engine.stats().SupportChanges(),
                  engine.stats().max_queue_length,
                  engine.stats().order_at_max_queue};
}

void Ablation(bench::JsonSink* sink) {
  std::printf(
      "E10: event queue (Lemma 9) on init + 300 updates + 5 time units "
      "of sweep.\n"
      "Verifies the adjacent-pairs-only invariant: max queue <= N-1, with\n"
      "N the live object count when the peak was reached (new/terminate\n"
      "updates move it away from the initial N).\n");
  bench::Table table(sink, "queue_ablation",
                     {"N", "time_ms", "m", "max_queue", "live_at_peak"});
  for (size_t n : {500, 2000, 8000}) {
    const RunStats stats = RunWorkload(n);
    MODB_CHECK(stats.live_at_peak > 0 &&
               stats.max_queue <= stats.live_at_peak - 1)
        << "queue bound violated: " << stats.max_queue << " events with "
        << stats.live_at_peak << " objects";
    table.Row({static_cast<double>(n), stats.seconds * 1e3,
               static_cast<double>(stats.support_changes),
               static_cast<double>(stats.max_queue),
               static_cast<double>(stats.live_at_peak)});
  }
}

}  // namespace
}  // namespace modb

int main(int argc, char** argv) {
  modb::bench::JsonSink sink(modb::bench::JsonSink::PathFromArgs(argc, argv));
  modb::bench::TraceFile trace(
      modb::bench::TraceFile::PathFromArgs(argc, argv));
  modb::Ablation(&sink);
  return 0;
}
