#include "core/sweep_state.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/query_cost.h"
#include "obs/trace.h"

namespace modb {
namespace {

// Tolerance for the continuity checks at chdir / query-chdir boundaries.
constexpr double kContinuityTol = 1e-6;

// Publish adds only the counters that moved: most calls move few.
void Add(obs::Counter* counter, uint64_t n) {
  if (n != 0) counter->Increment(n);
}
void Add(std::atomic<uint64_t>& cell, uint64_t n) {
  if (n != 0) cell.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

SweepStats& SweepStats::operator+=(const SweepStats& other) {
  swaps += other.swaps;
  inserts += other.inserts;
  erases += other.erases;
  curve_rebuilds += other.curve_rebuilds;
  crossings_computed += other.crossings_computed;
  batch_lanes += other.batch_lanes;
  events_scheduled += other.events_scheduled;
  events_cancelled += other.events_cancelled;
  if (other.max_queue_length > max_queue_length) {
    max_queue_length = other.max_queue_length;
    order_at_max_queue = other.order_at_max_queue;
  }
  return *this;
}

SweepStats SweepStats::Minus(const SweepStats& base) const {
  SweepStats delta = *this;
  delta.swaps -= base.swaps;
  delta.inserts -= base.inserts;
  delta.erases -= base.erases;
  delta.curve_rebuilds -= base.curve_rebuilds;
  delta.crossings_computed -= base.crossings_computed;
  delta.batch_lanes -= base.batch_lanes;
  delta.events_scheduled -= base.events_scheduled;
  delta.events_cancelled -= base.events_cancelled;
  return delta;
}

SweepState::SweepState(GDistancePtr gdist, double start_time, double horizon)
    : gdist_(std::move(gdist)),
      now_(start_time),
      horizon_(horizon),
      metrics_(&obs::M()) {
  MODB_CHECK(gdist_ != nullptr);
  MODB_CHECK_LE(start_time, horizon);
  // Derived gauges (exact tree depth, live sizes) are refreshed through
  // the registry's shared hook point before every snapshot render, not
  // maintained on the hot path.
  refresh_hook_id_ = obs::MetricsRegistry::Global().AddRefreshHook(
      [this] { RefreshDerivedGauges(); });
}

SweepState::~SweepState() {
  // One last refresh so renders after teardown (the CLI's --stats path
  // dumps after the verb's server is gone) still see this sweep's final
  // exact values instead of a stale insertion-path watermark.
  RefreshDerivedGauges();
  obs::MetricsRegistry::Global().RemoveRefreshHook(refresh_hook_id_);
}

void SweepState::RefreshDerivedGauges() const {
  metrics_->sweep_order_size->Set(static_cast<int64_t>(order_.size()));
  metrics_->sweep_order_depth_peak->SetMax(
      static_cast<int64_t>(order_.Depth()));
}

void SweepState::AddListener(SweepListener* listener) {
  MODB_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

void SweepState::RemoveListener(SweepListener* listener) {
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

double SweepState::EntryValue(const CurveEntry& entry, double t) const {
  // Pool evaluation is bit-identical to PiecewisePoly::Eval on the packed
  // source, so the dispatch never changes a value.
  return entry.is_pooled() ? pool_.Eval(entry.pooled, t)
                           : entry.general.Eval(t);
}

double SweepState::CurveValue(ObjectId oid, double t) const {
  auto it = curves_.find(oid);
  MODB_CHECK(it != curves_.end()) << "no curve for oid " << oid;
  return EntryValue(it->second, t);
}

SweepState::CurveEntry SweepState::BuildEntry(const Trajectory& trajectory) {
  CurveEntry entry;
  GCurve fallback;
  entry.pooled = gdist_->CurveIntoPool(&pool_, trajectory, &fallback);
  if (!entry.is_pooled()) entry.general = std::move(fallback);
  return entry;
}

void SweepState::ReleaseEntry(CurveEntry* entry) {
  if (entry->is_pooled()) {
    pool_.Release(entry->pooled);
    entry->pooled = PolySegPool::kInvalidCurve;
  }
}

std::optional<double> SweepState::EntryFirstCrossing(
    const CurveEntry& a, const CurveEntry& b) const {
  if (a.is_pooled() && b.is_pooled()) {
    return FirstCrossingPooled(pool_, a.pooled, b.pooled, now_, horizon_,
                               root_options_);
  }
  // Mixed pooled / general pair (numeric or degree > 2 g-distances): fall
  // back to the general machinery on an exact round-trip of the pooled
  // side.
  const GCurve ga = a.is_pooled()
                        ? GCurve::FromPoly(pool_.ToPiecewisePoly(a.pooled))
                        : a.general;
  const GCurve gb = b.is_pooled()
                        ? GCurve::FromPoly(pool_.ToPiecewisePoly(b.pooled))
                        : b.general;
  return GCurve::FirstTimeAbove(ga, gb, now_, horizon_, root_options_);
}

void SweepState::NoteQueueLength() {
  if (queue_.size() > stats_.max_queue_length) {
    stats_.max_queue_length = queue_.size();
    stats_.order_at_max_queue = order_.size();
  }
}

void SweepState::Publish() {
  const SweepStats delta = stats_.Minus(published_);
  published_ = stats_;
  Add(metrics_->sweep_swaps, delta.swaps);
  Add(metrics_->sweep_inserts, delta.inserts);
  Add(metrics_->sweep_erases, delta.erases);
  Add(metrics_->sweep_support_changes, delta.SupportChanges());
  Add(metrics_->sweep_curve_rebuilds, delta.curve_rebuilds);
  Add(metrics_->sweep_crossings_computed, delta.crossings_computed);
  Add(metrics_->sweep_events_scheduled, delta.events_scheduled);
  Add(metrics_->sweep_events_cancelled, delta.events_cancelled);
  metrics_->sweep_order_depth_peak->SetMax(
      static_cast<int64_t>(order_.last_insert_depth()));
  metrics_->sweep_queue_peak->SetMax(
      static_cast<int64_t>(stats_.max_queue_length));
  if (cost_ != nullptr) {
    Add(cost_->swaps, delta.swaps);
    Add(cost_->inserts, delta.inserts);
    Add(cost_->erases, delta.erases);
    Add(cost_->curve_rebuilds, delta.curve_rebuilds);
    Add(cost_->crossings, delta.crossings_computed);
    Add(cost_->batch_lanes, delta.batch_lanes);
    Add(cost_->schedules, delta.events_scheduled);
    Add(cost_->cancels, delta.events_cancelled);
  }
}

void SweepState::CancelPair(ObjectId left, ObjectId right) {
  if (queue_.ErasePair(left, right)) {
    ++stats_.events_cancelled;
    obs::TraceInstant(obs::SpanName::kSweepCancel, left, now_,
                      static_cast<uint64_t>(right), /*coarse=*/true);
  }
}

std::optional<SweepEvent> SweepState::ComputePairEvent(ObjectId left,
                                                       ObjectId right) {
  ++stats_.crossings_computed;
  const std::optional<double> crossing =
      EntryFirstCrossing(curves_.at(left), curves_.at(right));
  if (!crossing.has_value()) return std::nullopt;
  return SweepEvent{*crossing, left, right};
}

void SweepState::SchedulePair(ObjectId left, ObjectId right) {
  std::optional<SweepEvent> event = ComputePairEvent(left, right);
  if (event.has_value()) {
    queue_.Push(*event);
    ++stats_.events_scheduled;
    obs::TraceInstant(obs::SpanName::kSweepSchedule, left, event->time,
                      static_cast<uint64_t>(right), /*coarse=*/true);
    NoteQueueLength();
  }
}

void SweepState::SchedulePairs(const std::pair<ObjectId, ObjectId>* pairs,
                               size_t n) {
  if (n == 0) return;
  bool all_pooled = true;
  batch_refs_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const CurveEntry& a = curves_.at(pairs[i].first);
    const CurveEntry& b = curves_.at(pairs[i].second);
    if (!a.is_pooled() || !b.is_pooled()) {
      all_pooled = false;
      break;
    }
    batch_refs_[i] = CurvePairRef{a.pooled, b.pooled};
  }
  if (!all_pooled) {
    for (size_t i = 0; i < n; ++i) {
      SchedulePair(pairs[i].first, pairs[i].second);
    }
    return;
  }
  batch_out_.resize(n);
  stats_.crossings_computed += n;
  stats_.batch_lanes += n;
  FirstCrossingBatch(pool_, batch_refs_.data(), n, now_, horizon_,
                     root_options_, batch_out_.data(), &batch_scratch_);
  // Replay pushes in pair order: same queue contents, counts and trace
  // sequence as n sequential SchedulePair calls.
  for (size_t i = 0; i < n; ++i) {
    if (batch_out_[i] == kInf) continue;
    queue_.Push(SweepEvent{batch_out_[i], pairs[i].first, pairs[i].second});
    ++stats_.events_scheduled;
    obs::TraceInstant(obs::SpanName::kSweepSchedule, pairs[i].first,
                      batch_out_[i], static_cast<uint64_t>(pairs[i].second),
                      /*coarse=*/true);
    NoteQueueLength();
  }
}

void SweepState::InsertObject(ObjectId oid, const Trajectory& trajectory) {
  MODB_CHECK(!ContainsObject(oid)) << "oid " << oid << " already present";
  obs::TraceSpan span(obs::SpanName::kSweepInsert, oid, now_);
  CurveEntry entry = BuildEntry(trajectory);
  MODB_CHECK(entry.is_pooled() ? pool_.Covers(entry.pooled, now_)
                               : entry.general.Domain().Contains(now_))
      << "curve of oid " << oid << " undefined at sweep time " << now_;
  const double value = EntryValue(entry, now_);
  InsertEntry(oid, std::move(entry), value);
}

void SweepState::InsertSentinel(ObjectId oid, double value) {
  MODB_CHECK(!ContainsObject(oid)) << "oid " << oid << " already present";
  obs::TraceSpan span(obs::SpanName::kSweepInsert, oid, now_);
  CurveEntry entry;
  entry.pooled = pool_.AddConstant(value);
  sentinels_.insert(oid);
  InsertEntry(oid, std::move(entry), value);
}

void SweepState::InsertEntry(ObjectId oid, CurveEntry entry, double value) {
  curves_.emplace(oid, std::move(entry));
  order_.Insert(oid, value,
                [this](ObjectId other) { return CurveValue(other, now_); });

  // The new object's neighbors were adjacent before; that pair dissolves.
  const std::optional<ObjectId> prev = order_.Prev(oid);
  const std::optional<ObjectId> next = order_.Next(oid);
  if (prev.has_value() && next.has_value()) {
    CancelPair(*prev, *next);
  }
  std::pair<ObjectId, ObjectId> pairs[2];
  size_t npairs = 0;
  if (prev.has_value()) pairs[npairs++] = {*prev, oid};
  if (next.has_value()) pairs[npairs++] = {oid, *next};
  SchedulePairs(pairs, npairs);

  ++stats_.inserts;
  for (SweepListener* listener : listeners_) listener->OnInsert(now_, oid);
  RunPostEventHook();
  Publish();
}

void SweepState::EraseObject(ObjectId oid) {
  MODB_CHECK(ContainsObject(oid)) << "oid " << oid << " not present";
  obs::TraceSpan span(obs::SpanName::kSweepErase, oid, now_);
  const std::optional<ObjectId> prev = order_.Prev(oid);
  const std::optional<ObjectId> next = order_.Next(oid);
  if (prev.has_value()) CancelPair(*prev, oid);
  if (next.has_value()) CancelPair(oid, *next);
  order_.Erase(oid);
  auto it = curves_.find(oid);
  ReleaseEntry(&it->second);
  curves_.erase(it);
  sentinels_.erase(oid);
  // The departing object's neighbors become adjacent.
  if (prev.has_value() && next.has_value()) SchedulePair(*prev, *next);

  ++stats_.erases;
  for (SweepListener* listener : listeners_) listener->OnErase(now_, oid);
  RunPostEventHook();
  Publish();
}

void SweepState::ReplaceCurve(ObjectId oid, const Trajectory& trajectory) {
  MODB_CHECK(ContainsObject(oid)) << "oid " << oid << " not present";
  MODB_CHECK(!IsSentinel(oid)) << "cannot replace a sentinel's curve";
  obs::TraceSpan span(obs::SpanName::kSweepCurve, oid, now_);
  CurveEntry entry = BuildEntry(trajectory);
  MODB_CHECK(entry.is_pooled() ? pool_.Covers(entry.pooled, now_)
                               : entry.general.Domain().Contains(now_));
  // For continuous g-distances, Definition 3's chdir leaves the value —
  // and hence the order — unchanged at the update time. The paper's
  // closing remark relaxes continuity to finitely many continuous pieces:
  // a g-distance like the interception time t_Δ² *jumps* when the speed
  // changes. No special handling is needed: rescheduling the object's
  // pair events below finds a "crossing" at now() whenever the jump broke
  // the local order, and processing those events bubbles the object to
  // its correct position through O(displacement) adjacent swaps.
  CurveEntry& slot = curves_.at(oid);
  ReleaseEntry(&slot);
  slot = std::move(entry);

  const std::optional<ObjectId> prev = order_.Prev(oid);
  const std::optional<ObjectId> next = order_.Next(oid);
  if (prev.has_value()) CancelPair(*prev, oid);
  if (next.has_value()) CancelPair(oid, *next);
  std::pair<ObjectId, ObjectId> pairs[2];
  size_t npairs = 0;
  if (prev.has_value()) pairs[npairs++] = {*prev, oid};
  if (next.has_value()) pairs[npairs++] = {oid, *next};
  SchedulePairs(pairs, npairs);

  ++stats_.curve_rebuilds;
  for (SweepListener* listener : listeners_) {
    listener->OnCurveChanged(now_, oid);
  }
  RunPostEventHook();
  Publish();
}

void SweepState::ReplaceGDistance(
    GDistancePtr gdist,
    const std::function<const Trajectory*(ObjectId)>& lookup) {
  MODB_CHECK(gdist != nullptr);
  obs::TraceSpan span(obs::SpanName::kSweepRebuild, obs::kTraceNoId, now_,
                      curves_.size());
  gdist_ = std::move(gdist);
  // Rebuild every curve. Values at now() must be unchanged — that is what
  // justifies keeping the order without re-sorting (Theorem 10).
  for (auto& [oid, entry] : curves_) {
    if (sentinels_.count(oid) > 0) continue;
    const Trajectory* trajectory = lookup(oid);
    MODB_CHECK(trajectory != nullptr)
        << "ReplaceGDistance missing trajectory for oid " << oid;
#ifndef NDEBUG
    const double old_value = EntryValue(entry, now_);
#endif
    CurveEntry rebuilt = BuildEntry(*trajectory);
    MODB_CHECK(rebuilt.is_pooled()
                   ? pool_.Covers(rebuilt.pooled, now_)
                   : rebuilt.general.Domain().Contains(now_));
#ifndef NDEBUG
    const double new_value = EntryValue(rebuilt, now_);
    MODB_DCHECK(std::fabs(new_value - old_value) <=
                kContinuityTol * (1.0 + std::fabs(new_value)))
        << "query-trajectory change altered a value at the update time";
#endif
    ReleaseEntry(&entry);
    entry = std::move(rebuilt);
    ++stats_.curve_rebuilds;
  }
  // Recompute one event per adjacent pair and bulk-build the queue: O(N)
  // heap work. When every curve is pooled — the common case — all N-1
  // crossings run as one `gdist.crossing_batch` SOA pass over the segment
  // pool instead of N-1 independent polynomial walks.
  std::vector<SweepEvent> events;
  const std::vector<ObjectId> sequence = order_.ToVector();
  if (sequence.size() > 1) {
    const size_t n = sequence.size() - 1;
    events.reserve(n);
    bool all_pooled = true;
    batch_refs_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const CurveEntry& a = curves_.at(sequence[i]);
      const CurveEntry& b = curves_.at(sequence[i + 1]);
      if (!a.is_pooled() || !b.is_pooled()) {
        all_pooled = false;
        break;
      }
      batch_refs_[i] = CurvePairRef{a.pooled, b.pooled};
    }
    if (all_pooled) {
      batch_out_.resize(n);
      stats_.crossings_computed += n;
      stats_.batch_lanes += n;
      FirstCrossingBatch(pool_, batch_refs_.data(), n, now_, horizon_,
                         root_options_, batch_out_.data(), &batch_scratch_);
      for (size_t i = 0; i < n; ++i) {
        if (batch_out_[i] == kInf) continue;
        events.push_back(
            SweepEvent{batch_out_[i], sequence[i], sequence[i + 1]});
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        std::optional<SweepEvent> event =
            ComputePairEvent(sequence[i], sequence[i + 1]);
        if (event.has_value()) events.push_back(*event);
      }
    }
  }
  // The rebuild drops every queued event and schedules the new ones:
  // count both, so scheduled - fired - cancelled stays the queue length.
  stats_.events_cancelled += queue_.size();
  stats_.events_scheduled += events.size();
  queue_.BulkBuild(std::move(events));
  NoteQueueLength();
  RunPostEventHook();
  Publish();
}

std::vector<SweepEvent> SweepState::QueueSnapshot() const {
  return queue_.Snapshot();
}

std::optional<double> SweepState::PairFirstCrossing(ObjectId left,
                                                    ObjectId right) const {
  // Audit-only recomputation: const, and deliberately NOT counted in
  // stats_.crossings_computed (the benchmarks measure the sweep, not the
  // auditor re-deriving it). Same kernel dispatch as the sweep itself.
  return EntryFirstCrossing(curves_.at(left), curves_.at(right));
}

bool SweepState::HasEventAtOrBefore(double t) const {
  return !queue_.empty() && queue_.Min().time <= t;
}

void SweepState::ProcessEvent(const SweepEvent& event) {
  const ObjectId left = event.left;
  const ObjectId right = event.right;
  // Lemma 9's invariant: queued pairs are currently adjacent.
  MODB_CHECK(order_.Next(left).value_or(kInvalidObjectId) == right)
      << "event for non-adjacent pair";
  now_ = event.time;
  // Fresh clock read: also refreshes the thread's coarse timestamp for the
  // schedule/cancel instants emitted while repairing adjacencies below.
  obs::TraceInstant(obs::SpanName::kSweepSwap, left, now_,
                    static_cast<uint64_t>(right));

  const std::optional<ObjectId> prev = order_.Prev(left);
  const std::optional<ObjectId> next = order_.Next(right);
  if (prev.has_value()) CancelPair(*prev, left);
  if (next.has_value()) CancelPair(right, *next);

  order_.SwapAdjacent(left, right);
  ++stats_.swaps;
  for (SweepListener* listener : listeners_) {
    listener->OnSwap(now_, left, right);
  }

  // New adjacencies: (prev, right), (right, left), (left, next) — one
  // batched kernel pass for all of the event's candidate pairs.
  std::pair<ObjectId, ObjectId> pairs[3];
  size_t npairs = 0;
  if (prev.has_value()) pairs[npairs++] = {*prev, right};
  pairs[npairs++] = {right, left};
  if (next.has_value()) pairs[npairs++] = {left, *next};
  SchedulePairs(pairs, npairs);
  RunPostEventHook();
}

void SweepState::AdvanceTo(double t) {
  MODB_CHECK_GE(t, now_);
  MODB_CHECK_LE(t, horizon_);
  while (HasEventAtOrBefore(t)) {
    ProcessEvent(queue_.PopMin());
  }
  now_ = t;
  Publish();
}

void SweepState::CheckInvariants() const {
  order_.CheckInvariants();
  // Lemma 9: at most one event per adjacent pair.
  MODB_CHECK(queue_.size() + 1 <= order_.size() || queue_.size() == 0)
      << "queue length " << queue_.size() << " exceeds N-1 for N="
      << order_.size();
  // The maintained order must agree with curve values at now(). The
  // tolerance is relative: crossing times carry ~1e-10 absolute error, so
  // two curves with steep slopes may disagree by |slope| * 1e-10 right
  // after a swap.
  const std::vector<ObjectId> sequence = order_.ToVector();
  for (size_t i = 0; i + 1 < sequence.size(); ++i) {
    const double a = CurveValue(sequence[i], now_);
    const double b = CurveValue(sequence[i + 1], now_);
    MODB_CHECK(a <= b + 1e-6 * (1.0 + std::fabs(a) + std::fabs(b)))
        << "order violation at now=" << now_ << ": f(o" << sequence[i]
        << ")=" << a << " > f(o" << sequence[i + 1] << ")=" << b;
  }
}

}  // namespace modb
