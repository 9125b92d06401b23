#ifndef MODB_CORE_SWEEP_STATE_H_
#define MODB_CORE_SWEEP_STATE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gdist/curve_batch.h"
#include "gdist/gdistance.h"
#include "index/event_queue.h"
#include "index/ordered_sequence.h"
#include "obs/modb_metrics.h"
#include "trajectory/mod.h"

namespace modb {

namespace obs {
class CostCell;
}  // namespace obs

// Receives the support changes the sweep discovers, in time order. The
// support (§5) is the minimal set of true order atoms between consecutive
// objects in the precedence relation; it changes exactly at these hooks.
// Query kernels (k-NN, within-range, ...) implement this interface to
// maintain their answers incrementally.
class SweepListener {
 public:
  virtual ~SweepListener() = default;

  // `left` and `right` were adjacent with left ≤ right; at `time` their
  // curves crossed and the order is now right ≤ left (the paper's two-step
  // switch through ≡_τ collapsed into one notification).
  virtual void OnSwap(double time, ObjectId left, ObjectId right) = 0;

  // `oid` entered the order (object creation or sweep start).
  virtual void OnInsert(double time, ObjectId oid) = 0;

  // `oid` left the order (termination).
  virtual void OnErase(double time, ObjectId oid) = 0;

  // `oid`'s curve was replaced (chdir); the order is unchanged at `time`.
  virtual void OnCurveChanged(double time, ObjectId oid) {
    (void)time;
    (void)oid;
  }
};

// The one home of every sweep counter: plain integers written only by the
// thread driving the SweepState, which copies them to the registry and its
// cost sink once per public call (see SweepState::Publish). The benchmark
// harness reads them to report the paper's `m` alongside wall time.
struct SweepStats {
  uint64_t swaps = 0;              // Intersection events processed.
  uint64_t inserts = 0;            // Objects entering the order.
  uint64_t erases = 0;             // Objects leaving the order.
  uint64_t curve_rebuilds = 0;     // chdir-driven curve replacements.
  uint64_t crossings_computed = 0; // Pairwise crossing computations.
  uint64_t batch_lanes = 0;        // Crossings computed by batched passes.
  uint64_t events_scheduled = 0;   // Events pushed into the queue.
  uint64_t events_cancelled = 0;   // Queued events removed before firing.
  size_t max_queue_length = 0;     // Peak event-queue length (≤ N - 1).
  size_t order_at_max_queue = 0;   // Order size N when that peak was set.

  uint64_t SupportChanges() const { return swaps + inserts + erases; }

  // Sums the counters; the peak is the larger one, with its order size.
  SweepStats& operator+=(const SweepStats& other);
  // Counters minus those of an earlier snapshot of the same sweep; the
  // peak fields are this snapshot's.
  SweepStats Minus(const SweepStats& base) const;
};

// The sweep state of §5: the object list L (precedence order ≤_τ at the
// current sweep time), the event queue E (one earliest-future intersection
// per currently adjacent pair, per Lemma 9), and the curves f_o. Both the
// past-query and the future-query engines drive this state; they differ
// only in where structural changes come from (replayed history vs. live
// updates).
class SweepState {
 public:
  // `start_time` is the initial sweep position; no event before `horizon`
  // is ever missed, events after it are not scheduled (pass kInf for an
  // open horizon).
  SweepState(GDistancePtr gdist, double start_time, double horizon = kInf);
  ~SweepState();

  SweepState(const SweepState&) = delete;
  SweepState& operator=(const SweepState&) = delete;

  // Listeners are notified of support changes in time order. Not owned;
  // must outlive the state.
  void AddListener(SweepListener* listener);

  // Detaches a previously added listener (no-op if absent). Kernels call
  // this from their destructors so a standing query can be torn down while
  // the sweep lives on (QueryServer::RemoveQuery).
  void RemoveListener(SweepListener* listener);

  double now() const { return now_; }
  double horizon() const { return horizon_; }
  size_t size() const { return order_.size(); }
  const OrderedSequence& order() const { return order_; }
  const SweepStats& stats() const { return stats_; }
  size_t queue_length() const { return queue_.size(); }
  const GDistance& gdistance() const { return *gdist_; }

  // Value of `oid`'s curve at time t (t within the curve's domain).
  double CurveValue(ObjectId oid, double t) const;

  // Every queued intersection event, in deterministic order. O(E log E);
  // audit/debugging only.
  std::vector<SweepEvent> QueueSnapshot() const;

  // Independently recomputes the pair's earliest crossing strictly after
  // now() (the value Lemma 9 says the queue must hold for an adjacent
  // pair). Const and side-effect free — the SweepAuditor's ground truth;
  // does not count toward stats().crossings_computed.
  std::optional<double> PairFirstCrossing(ObjectId left, ObjectId right) const;

  // Opt-in verification hook, invoked after every processed intersection
  // event and after every structural mutation (insert/erase/curve
  // replacement) once the state is self-consistent again. Debug/test
  // instrumentation — the SweepAuditor attaches here; pass nullptr to
  // detach. Hooks must not mutate the state.
  void SetPostEventHook(std::function<void()> hook) {
    post_event_hook_ = std::move(hook);
  }
  bool ContainsObject(ObjectId oid) const { return curves_.count(oid) > 0; }
  bool IsSentinel(ObjectId oid) const { return sentinels_.count(oid) > 0; }
  // All sentinel pseudo-objects currently in the order (usually very few:
  // one per registered range threshold).
  const std::set<ObjectId>& sentinels() const { return sentinels_; }

  // Inserts an object at the current time: O(log N) plus up to three
  // crossing computations. The trajectory must be defined at now().
  void InsertObject(ObjectId oid, const Trajectory& trajectory);

  // Inserts a pseudo-object whose curve is the constant `value`: the
  // paper's extension of ≤_τ to real numbers. Range queries use a constant
  // sentinel as the threshold; everything preceding it is within range.
  void InsertSentinel(ObjectId oid, double value);

  // Removes an object (termination): O(log N) plus one crossing
  // computation for the closing neighbor pair.
  void EraseObject(ObjectId oid);

  // Replaces `oid`'s curve after a chdir. The updated trajectory agrees
  // with the old one up to now(), so the order is unchanged; only the
  // object's two pair events are recomputed (O(log N)).
  void ReplaceCurve(ObjectId oid, const Trajectory& trajectory);

  // Theorem 10: the *query* trajectory changed at now(), so every curve
  // changes — but all curve values at now() are unchanged (continuity), so
  // the precedence order stays valid. Rebuilds all curves and re-derives
  // the event queue in O(N) heap work plus N - 1 crossing computations
  // (batched through `gdist.crossing_batch` when every curve is pooled),
  // without re-sorting. `lookup` must return the trajectory of every
  // non-sentinel object in the state (the pointer only needs to stay valid
  // for the duration of the call).
  void ReplaceGDistance(
      GDistancePtr gdist,
      const std::function<const Trajectory*(ObjectId)>& lookup);

  // True if an intersection event is pending at or before `t`.
  bool HasEventAtOrBefore(double t) const;

  // Processes every intersection event with time <= t (in time order,
  // ties in deterministic pair order) and advances the sweep to t.
  void AdvanceTo(double t);

  // Verifies that the maintained order matches curve values at now() and
  // that the queue length respects Lemma 9's bound; aborts on violation.
  // O(N log N); for tests.
  void CheckInvariants() const;

  // The arena every pooled curve lives in (introspection / tests).
  const PolySegPool& pool() const { return pool_; }

  // Cost-attribution sink: when set, each public mutator adds the sweep
  // work it did to the cell once, at its end (see Publish). The sweep is
  // shared by every query in its engine group, so the sink is the GROUP
  // cell of a QueryCostLedger. Null (the default) disables attribution.
  // Not owned; must outlive the state or be reset to null first.
  void SetCostSink(obs::CostCell* cost) { cost_ = cost; }
  obs::CostCell* cost_sink() const { return cost_; }

 private:
  // A curve is either a run of segments in the SOA pool (every builtin
  // polynomial g-distance of degree <= 2 — the common case, and the only
  // one the batched kernels see) or a general GCurve fallback (numeric
  // curves, degree > 2).
  struct CurveEntry {
    PolySegPool::CurveId pooled = PolySegPool::kInvalidCurve;
    GCurve general;  // Engaged only when pooled == kInvalidCurve.
    bool is_pooled() const { return pooled != PolySegPool::kInvalidCurve; }
  };

  double EntryValue(const CurveEntry& entry, double t) const;
  // First crossing of a over b strictly within (now, horizon]:
  // `gdist.crossing_pooled` when both entries are pooled, otherwise the
  // general GCurve path on exact pool round-trips. Const and side-effect
  // free; callers account stats.
  std::optional<double> EntryFirstCrossing(const CurveEntry& a,
                                           const CurveEntry& b) const;
  // Builds the entry for a trajectory under the current g-distance.
  CurveEntry BuildEntry(const Trajectory& trajectory);
  void ReleaseEntry(CurveEntry* entry);
  // The rest of InsertObject / InsertSentinel: places `oid`, whose curve
  // `entry` is `value` at now(), and repairs the queue around it.
  void InsertEntry(ObjectId oid, CurveEntry entry, double value);
  void SchedulePair(ObjectId left, ObjectId right);
  // Batched SchedulePair over up to `n` pairs: when every involved curve is
  // pooled, one `gdist.crossing_batch` SOA pass computes all crossings;
  // pushes, counts and trace instants are then replayed in pair order so
  // the observable effects match n sequential SchedulePair calls exactly.
  void SchedulePairs(const std::pair<ObjectId, ObjectId>* pairs, size_t n);
  // ErasePair that counts a removal as a cancelled event.
  void CancelPair(ObjectId left, ObjectId right);
  // Ends every public mutator: adds stats_ - published_ to the
  // `modb.sweep.*` counters and the cost sink and raises the peak gauges,
  // so both are exact whenever no SweepState call is on the stack.
  void Publish();
  // The registry refresh hook: republishes the derived gauges (exact
  // treap depth, current order size) so every metrics snapshot —
  // db-stats, --stats on any verb, bench --json — renders them fresh.
  void RefreshDerivedGauges() const;
  // Computes the pair's event without pushing; nullopt if none before the
  // horizon.
  std::optional<SweepEvent> ComputePairEvent(ObjectId left, ObjectId right);
  void ProcessEvent(const SweepEvent& event);
  void NoteQueueLength();
  void RunPostEventHook() const {
    if (post_event_hook_) post_event_hook_();
  }

  GDistancePtr gdist_;
  double now_;
  double horizon_;
  PolySegPool pool_;
  std::unordered_map<ObjectId, CurveEntry> curves_;
  std::set<ObjectId> sentinels_;
  // Reused staging for SchedulePairs / the Theorem-10 batch.
  std::vector<CurvePairRef> batch_refs_;
  std::vector<double> batch_out_;
  CrossingScratch batch_scratch_;
  OrderedSequence order_;
  EventQueue queue_;
  std::vector<SweepListener*> listeners_;
  std::function<void()> post_event_hook_;
  SweepStats stats_;
  // stats_ as of the last Publish.
  SweepStats published_;
  RootOptions root_options_;
  // Cached at construction: Publish needs no registry lookup.
  obs::ModbMetrics* metrics_;
  // Cost-attribution sink (see SetCostSink); null disables.
  obs::CostCell* cost_ = nullptr;
  // Registered while the state lives; removed (after one last refresh)
  // by the destructor so post-teardown renders see final values.
  uint64_t refresh_hook_id_;
};

}  // namespace modb

#endif  // MODB_CORE_SWEEP_STATE_H_
