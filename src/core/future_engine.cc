#include "core/future_engine.h"

#include "obs/modb_metrics.h"
#include "obs/query_cost.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace modb {

FutureQueryEngine::FutureQueryEngine(MovingObjectDatabase mod,
                                     GDistancePtr gdist, double start_time,
                                     double horizon)
    : mod_(std::move(mod)) {
  MODB_CHECK_GE(start_time, mod_.last_update_time())
      << "future queries start at or after the MOD's last update";
  state_ =
      std::make_unique<SweepState>(std::move(gdist), start_time, horizon);
}

void FutureQueryEngine::Start() {
  MODB_CHECK(!started_) << "Start() may be called once";
  started_ = true;
  obs::TraceSpan span(obs::SpanName::kEngineStart, obs::kTraceNoId,
                      state_->now(), mod_.objects().size());
  obs::ScopedTimer timer(obs::M().future_start_seconds);
  obs::CostCell* cost = state_->cost_sink();
  const uint64_t wall_start = cost != nullptr ? obs::TraceNowMicros() : 0;
  for (const auto& [oid, trajectory] : mod_.objects()) {
    // An object terminated at or before the start time has already ceased:
    // its erase "event" (the terminate update, in live operation) is in the
    // past. Its domain is closed, so DefinedAt alone would admit an object
    // ending exactly at now — a zombie the sweep would never erase. This
    // matters when the engine is rebuilt over a recovered MOD whose last
    // replayed update was a terminate.
    if (trajectory.DefinedAt(state_->now()) &&
        trajectory.end_time() > state_->now()) {
      state_->InsertObject(oid, trajectory);
    }
  }
  if (cost != nullptr) {
    cost->wall_micros.fetch_add(obs::TraceNowMicros() - wall_start,
                                std::memory_order_relaxed);
  }
}

void FutureQueryEngine::AdvanceTo(double t) {
  MODB_CHECK(started_);
  obs::CostCell* cost = state_->cost_sink();
  if (cost == nullptr) {
    state_->AdvanceTo(t);
    return;
  }
  const uint64_t wall_start = obs::TraceNowMicros();
  state_->AdvanceTo(t);
  cost->wall_micros.fetch_add(obs::TraceNowMicros() - wall_start,
                              std::memory_order_relaxed);
}

Status FutureQueryEngine::ApplyUpdate(const Update& update) {
  MODB_CHECK(started_);
  if (update.time < state_->now()) {
    return Status::FailedPrecondition("update precedes the sweep time");
  }
  obs::ModbMetrics& metrics = obs::M();
  metrics.future_updates->Increment();
  obs::TraceSpan span(obs::SpanName::kUpdateApply, update.oid, update.time,
                      static_cast<uint64_t>(update.kind));
  obs::ScopedTimer timer(metrics.future_update_seconds);
  obs::CostCell* cost = state_->cost_sink();
  const uint64_t wall_start = cost != nullptr ? obs::TraceNowMicros() : 0;
  const uint64_t m_before = state_->stats().SupportChanges();
  // Commit every support change the old motion produces up to and
  // including the update instant (trajectories are continuous, so pre- and
  // post-update curves agree at the instant itself).
  state_->AdvanceTo(update.time);
  MODB_RETURN_IF_ERROR(mod_.Apply(update));
  switch (update.kind) {
    case UpdateKind::kNew:
      state_->InsertObject(update.oid, *mod_.Find(update.oid));
      break;
    case UpdateKind::kTerminate:
      state_->EraseObject(update.oid);
      break;
    case UpdateKind::kChdir:
      state_->ReplaceCurve(update.oid, *mod_.Find(update.oid));
      break;
  }
  // A chdir under a *piecewise*-continuous g-distance (the paper's relaxed
  // setting, e.g. interception time with a speed change) may have jumped
  // the object's value: the repair events land at exactly the update
  // instant, so drain them now — kernels must be current when this call
  // returns.
  state_->AdvanceTo(update.time);
  metrics.future_update_support_changes->Observe(
      static_cast<double>(state_->stats().SupportChanges() - m_before));
  if (cost != nullptr) {
    cost->updates.fetch_add(1, std::memory_order_relaxed);
    cost->wall_micros.fetch_add(obs::TraceNowMicros() - wall_start,
                                std::memory_order_relaxed);
  }
  return Status::Ok();
}

void FutureQueryEngine::ChangeQueryGDistance(GDistancePtr gdist) {
  MODB_CHECK(started_);
  // A query-chdir rebuilds every curve (Theorem 10) — the costliest single
  // operation an engine runs — so it always gets its own span (the
  // internal kSweepRebuild becomes a child) and a slow-log offer carrying
  // that span's trace id for db-trace replay. The extra clock reads are
  // noise against the O(N) rebuild itself.
  obs::TraceSpan span(obs::SpanName::kQueryChdir, obs::kTraceNoId,
                      state_->now(), state_->size());
  const uint64_t wall_start = obs::TraceNowMicros();
  const SweepStats before = state_->stats();
  // Resolve trajectories straight out of the MOD: only objects alive in the
  // sweep are looked up, and nothing is copied for the rebuild.
  state_->ReplaceGDistance(std::move(gdist),
                           [this](ObjectId oid) { return mod_.Find(oid); });
  const uint64_t wall = obs::TraceNowMicros() - wall_start;
  obs::CostCell* cost = state_->cost_sink();
  if (cost != nullptr) {
    cost->wall_micros.fetch_add(wall, std::memory_order_relaxed);
  }
  obs::SlowUpdateRecord record;
  record.trace_id = span.trace_id();
  record.oid = 0;
  record.kind = obs::kChdirKind;
  record.model_time = state_->now();
  record.wall_micros = wall;
  const SweepStats delta = state_->stats().Minus(before);
  record.support_changes = delta.SupportChanges();
  record.crossings = delta.crossings_computed;
  obs::SlowLog::Global().Offer(record);
}

}  // namespace modb
