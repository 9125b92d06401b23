#include "verify/audit.h"

#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace modb {
namespace {

bool NearlyEqualTimes(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * (1.0 + std::fabs(a) + std::fabs(b));
}

// Appends unless the report is already at its violation cap.
void AddViolation(const AuditOptions& options, AuditReport* report,
                  AuditViolation violation) {
  if (report->violations.size() >= options.max_violations) return;
  report->violations.push_back(std::move(violation));
}

}  // namespace

const char* AuditViolationKindToString(AuditViolationKind kind) {
  switch (kind) {
    case AuditViolationKind::kOrderViolation:
      return "OrderViolation";
    case AuditViolationKind::kMissingEvent:
      return "MissingEvent";
    case AuditViolationKind::kNonAdjacentEvent:
      return "NonAdjacentEvent";
    case AuditViolationKind::kWrongEventTime:
      return "WrongEventTime";
    case AuditViolationKind::kSpuriousEvent:
      return "SpuriousEvent";
    case AuditViolationKind::kStaleEvent:
      return "StaleEvent";
    case AuditViolationKind::kQueueTooLong:
      return "QueueTooLong";
    case AuditViolationKind::kCurveDrift:
      return "CurveDrift";
    case AuditViolationKind::kStatsDrift:
      return "StatsDrift";
  }
  return "Unknown";
}

std::string AuditViolation::ToString() const {
  std::ostringstream out;
  out << AuditViolationKindToString(kind) << " at now=" << now;
  if (left != kInvalidObjectId) {
    out << " pair=(o" << left;
    if (right != kInvalidObjectId) out << ", o" << right;
    out << ")";
  }
  if (queued_time.has_value()) out << " queued_time=" << *queued_time;
  if (expected_time.has_value()) out << " expected_time=" << *expected_time;
  if (!detail.empty()) out << " — " << detail;
  return out.str();
}

std::string AuditReport::ToString() const {
  std::ostringstream out;
  out << "audit at now=" << now << ": " << objects << " objects, "
      << adjacent_pairs << " adjacent pairs, " << queued_events
      << " queued events, " << violations.size() << " violation(s)\n";
  for (const AuditViolation& violation : violations) {
    out << "  " << violation.ToString() << "\n";
  }
  return out.str();
}

AuditReport SweepAuditor::AuditView(const SweepView& view) const {
  AuditReport report;
  report.now = view.now;
  report.objects = view.order.size();
  report.queued_events = view.queue.size();
  report.adjacent_pairs = view.order.empty() ? 0 : view.order.size() - 1;

  // Clause 1 — the ordered sequence agrees with the g-distance order at
  // now(): every consecutive pair satisfies f(left) <= f(right) up to the
  // relative tolerance (crossing times carry ~1e-10 error, so steep curves
  // legitimately disagree by |slope|·1e-10 right after a swap).
  for (size_t i = 0; i + 1 < view.order.size(); ++i) {
    const ObjectId left = view.order[i];
    const ObjectId right = view.order[i + 1];
    const double a = view.value(left, view.now);
    const double b = view.value(right, view.now);
    if (a > b + options_.value_tol * (1.0 + std::fabs(a) + std::fabs(b))) {
      AuditViolation violation;
      violation.kind = AuditViolationKind::kOrderViolation;
      violation.left = left;
      violation.right = right;
      violation.now = view.now;
      std::ostringstream detail;
      detail << "f(o" << left << ")=" << a << " > f(o" << right << ")=" << b;
      violation.detail = detail.str();
      AddViolation(options_, &report, std::move(violation));
    }
  }

  // Clause 2 — Lemma 9's length bound: at most one event per adjacent pair.
  if (view.queue.size() > report.adjacent_pairs) {
    AuditViolation violation;
    violation.kind = AuditViolationKind::kQueueTooLong;
    violation.now = view.now;
    std::ostringstream detail;
    detail << view.queue.size() << " events for " << report.adjacent_pairs
           << " adjacent pairs";
    violation.detail = detail.str();
    AddViolation(options_, &report, std::move(violation));
  }

  std::map<ObjectId, size_t> position;
  for (size_t i = 0; i < view.order.size(); ++i) position[view.order[i]] = i;
  const auto adjacent = [&](ObjectId left, ObjectId right) {
    auto lit = position.find(left);
    auto rit = position.find(right);
    return lit != position.end() && rit != position.end() &&
           lit->second + 1 == rit->second;
  };

  // Clause 3 — every queued event belongs to a currently adjacent pair, is
  // not in the past, and sits at the pair's earliest future crossing.
  // Events at (or a hair past) now() are a pending same-instant cascade —
  // multi-way ties and chdir jump repairs queue events at exactly now()
  // that simply have not been popped yet — so only their adjacency is
  // checked, not their time.
  std::set<std::pair<ObjectId, ObjectId>> queued_pairs;
  for (const SweepEvent& event : view.queue) {
    AuditViolation violation;
    violation.left = event.left;
    violation.right = event.right;
    violation.now = view.now;
    violation.queued_time = event.time;
    if (!queued_pairs.insert({event.left, event.right}).second) {
      violation.kind = AuditViolationKind::kNonAdjacentEvent;
      violation.detail = "duplicate event for the pair";
      AddViolation(options_, &report, std::move(violation));
      continue;
    }
    if (!adjacent(event.left, event.right)) {
      violation.kind = AuditViolationKind::kNonAdjacentEvent;
      violation.detail = "queued pair is not adjacent in the order";
      AddViolation(options_, &report, std::move(violation));
      continue;
    }
    if (event.time <
        view.now - options_.cascade_slack * (1.0 + std::fabs(view.now))) {
      violation.kind = AuditViolationKind::kStaleEvent;
      violation.detail = "event time precedes the sweep time";
      AddViolation(options_, &report, std::move(violation));
      continue;
    }
    if (event.time <=
        view.now + options_.cascade_slack * (1.0 + std::fabs(view.now))) {
      continue;  // Pending same-instant cascade.
    }
    const std::optional<double> crossing =
        view.first_crossing(event.left, event.right);
    if (!crossing.has_value()) {
      violation.kind = AuditViolationKind::kSpuriousEvent;
      violation.detail = "pair has no future crossing";
      AddViolation(options_, &report, std::move(violation));
      continue;
    }
    if (!NearlyEqualTimes(event.time, *crossing, options_.time_tol)) {
      violation.kind = AuditViolationKind::kWrongEventTime;
      violation.expected_time = *crossing;
      violation.detail = "queued time is not the earliest future crossing";
      AddViolation(options_, &report, std::move(violation));
    }
  }

  // Clause 4 — completeness: every adjacent pair whose curves cross in the
  // future has a queued event.
  for (size_t i = 0; i + 1 < view.order.size(); ++i) {
    const ObjectId left = view.order[i];
    const ObjectId right = view.order[i + 1];
    if (queued_pairs.count({left, right}) > 0) continue;
    const std::optional<double> crossing = view.first_crossing(left, right);
    if (!crossing.has_value()) continue;
    AuditViolation violation;
    violation.kind = AuditViolationKind::kMissingEvent;
    violation.left = left;
    violation.right = right;
    violation.now = view.now;
    violation.expected_time = *crossing;
    violation.detail = "adjacent pair crosses but has no queued event";
    AddViolation(options_, &report, std::move(violation));
  }

  return report;
}

AuditReport SweepAuditor::Audit(const SweepState& state,
                                const MovingObjectDatabase* mod) const {
  SweepView view;
  view.now = state.now();
  view.horizon = state.horizon();
  view.order = state.order().ToVector();
  view.queue = state.QueueSnapshot();
  view.value = [&state](ObjectId oid, double t) {
    return state.CurveValue(oid, t);
  };
  view.first_crossing = [&state](ObjectId left, ObjectId right) {
    return state.PairFirstCrossing(left, right);
  };
  AuditReport report = AuditView(view);

  if (mod != nullptr) {
    // Clause 5 — the stored curves are current: re-derive each object's
    // curve from its trajectory through the g-distance and compare at
    // now(). A stale curve (missed chdir) passes the order checks as long
    // as the stale values happen to sort identically; this catches it.
    for (ObjectId oid : view.order) {
      if (state.IsSentinel(oid)) continue;
      AuditViolation violation;
      violation.kind = AuditViolationKind::kCurveDrift;
      violation.left = oid;
      violation.now = view.now;
      const Trajectory* trajectory = mod->Find(oid);
      if (trajectory == nullptr) {
        violation.detail = "object in the sweep but not in the MOD";
        AddViolation(options_, &report, std::move(violation));
        continue;
      }
      const GCurve fresh = state.gdistance().Curve(*trajectory);
      if (!fresh.Domain().Contains(view.now)) {
        violation.detail = "re-derived curve undefined at the sweep time";
        AddViolation(options_, &report, std::move(violation));
        continue;
      }
      const double stored = state.CurveValue(oid, view.now);
      const double derived = fresh.Eval(view.now);
      if (std::fabs(stored - derived) >
          options_.value_tol *
              (1.0 + std::fabs(stored) + std::fabs(derived))) {
        std::ostringstream detail;
        detail << "stored value " << stored << " vs re-derived " << derived;
        violation.detail = detail.str();
        AddViolation(options_, &report, std::move(violation));
      }
    }
  }

  return report;
}

AuditingObserver::AuditingObserver(SweepState* state,
                                   const MovingObjectDatabase* mod,
                                   AuditOptions options)
    : auditor_(options), state_(state), mod_(mod) {
  MODB_CHECK(state_ != nullptr);
  baseline_ = state_->stats();
  baseline_queue_ = state_->queue_length();
  state_->AddListener(this);
  state_->SetPostEventHook([this] { RunAudit(); });
}

AuditingObserver::~AuditingObserver() {
  state_->SetPostEventHook(nullptr);
  state_->RemoveListener(this);
}

void AuditingObserver::OnSwap(double, ObjectId, ObjectId) {
  ++observed_swaps_;
}

void AuditingObserver::OnInsert(double, ObjectId) { ++observed_inserts_; }

void AuditingObserver::OnErase(double, ObjectId) { ++observed_erases_; }

void AuditingObserver::RunAudit() {
  ++audits_run_;
  AuditReport report = auditor_.Audit(*state_, mod_);
  // Cross-check the accounting: SweepState notifies listeners of every
  // support change *before* running this hook, so the stats delta since
  // attach must equal the notifications received, and every event
  // scheduled since has fired (a swap), been cancelled or is queued.
  // Reported once — a drift is permanent and would flood later audits.
  const SweepStats delta = state_->stats().Minus(baseline_);
  const uint64_t queued = baseline_queue_ + delta.events_scheduled -
                          delta.swaps - delta.events_cancelled;
  if (!stats_drift_reported_ &&
      (delta.swaps != observed_swaps_ || delta.inserts != observed_inserts_ ||
       delta.erases != observed_erases_ ||
       queued != state_->queue_length())) {
    stats_drift_reported_ = true;
    AuditViolation violation;
    violation.kind = AuditViolationKind::kStatsDrift;
    violation.now = state_->now();
    std::ostringstream detail;
    detail << "stats delta since attach (swaps " << delta.swaps
           << ", inserts " << delta.inserts << ", erases " << delta.erases
           << ") vs listener notifications (swaps " << observed_swaps_
           << ", inserts " << observed_inserts_ << ", erases "
           << observed_erases_ << "); queue " << state_->queue_length()
           << " vs " << queued << " by the event counts";
    violation.detail = detail.str();
    report.violations.push_back(std::move(violation));
  }
  accumulated_.now = report.now;
  accumulated_.objects = report.objects;
  accumulated_.queued_events = report.queued_events;
  accumulated_.adjacent_pairs = report.adjacent_pairs;
  const bool was_ok = accumulated_.ok();
  for (AuditViolation& violation : report.violations) {
    if (accumulated_.violations.size() >= auditor_.options().max_violations) {
      break;
    }
    accumulated_.violations.push_back(std::move(violation));
  }
  if (was_ok && !accumulated_.ok()) {
    // First violation: the instant inherits the trace id of the update
    // whose sweep work tripped the audit (the post-event hook runs inside
    // the enclosing engine span), then the ring is dumped so the causal
    // chain survives the process.
    const AuditViolation& first = accumulated_.violations.front();
    obs::TraceInstant(obs::SpanName::kAuditViolation,
                      first.left != kInvalidObjectId ? first.left
                                                     : obs::kTraceNoId,
                      first.now, static_cast<uint64_t>(first.kind));
    obs::FlightRecorder::Global().AutoDump();
    obs::SlowLog::Global().AutoDump();
  }
}

}  // namespace modb
