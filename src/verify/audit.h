#ifndef MODB_VERIFY_AUDIT_H_
#define MODB_VERIFY_AUDIT_H_

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/sweep_state.h"
#include "trajectory/mod.h"

namespace modb {

// What a SweepAuditor found wrong. Each kind names one clause of the
// Lemma 7 / Lemma 9 invariant the sweep must maintain (see
// docs/INTERNALS.md, "The audited invariants").
enum class AuditViolationKind {
  // The ordered sequence disagrees with the curve values at now():
  // f(left) > f(right) although left precedes right.
  kOrderViolation,
  // An adjacent pair has a future crossing but no queued event.
  kMissingEvent,
  // A queued event's pair is not currently adjacent (left must
  // immediately precede right).
  kNonAdjacentEvent,
  // An adjacent pair's queued event is not at the pair's earliest future
  // crossing.
  kWrongEventTime,
  // An adjacent pair has a queued event but no future crossing exists.
  kSpuriousEvent,
  // A queued event lies in the past (before now()).
  kStaleEvent,
  // Queue length exceeds Lemma 9's N - 1 bound.
  kQueueTooLong,
  // A non-sentinel object's stored curve disagrees at now() with the curve
  // freshly derived from its trajectory (stale curve after chdir).
  kCurveDrift,
  // Since the observer attached, stats() disagrees with the listener
  // notifications delivered (support changes, the Theorem 4/5 m) or with
  // the queue length (scheduled - fired - cancelled events).
  kStatsDrift,
};

const char* AuditViolationKindToString(AuditViolationKind kind);

struct AuditViolation {
  AuditViolationKind kind;
  // The offending pair; `right` is kInvalidObjectId for single-object
  // violations (kCurveDrift) and both are invalid for kQueueTooLong.
  ObjectId left = kInvalidObjectId;
  ObjectId right = kInvalidObjectId;
  // Sweep time of the audit.
  double now = 0.0;
  // Queued event time (if any) and independently recomputed crossing time
  // (if any) for event-related violations.
  std::optional<double> queued_time;
  std::optional<double> expected_time;
  std::string detail;

  std::string ToString() const;
};

struct AuditReport {
  double now = 0.0;
  size_t objects = 0;
  size_t queued_events = 0;
  size_t adjacent_pairs = 0;
  std::vector<AuditViolation> violations;

  bool ok() const { return violations.empty(); }
  std::string ToString() const;
};

// The minimal state an audit needs, decoupled from SweepState so tests can
// audit deliberately corrupted configurations (mutation testing) and so the
// auditor itself is testable against hand-built orders and queues.
struct SweepView {
  double now = 0.0;
  double horizon = kInf;
  // The maintained precedence order, front (minimal) to back.
  std::vector<ObjectId> order;
  // Every queued event.
  std::vector<SweepEvent> queue;
  // Curve value of an object at a time.
  std::function<double(ObjectId, double)> value;
  // Earliest crossing of an adjacent pair strictly after `now`, or nullopt.
  std::function<std::optional<double>(ObjectId, ObjectId)> first_crossing;
};

// Tolerances for the audit's numeric comparisons. Crossing times carry
// ~1e-10 absolute error and values near a crossing differ by |slope|·err,
// so all comparisons are relative.
struct AuditOptions {
  // Order check: f(a) <= f(b) + tol·(1 + |f(a)| + |f(b)|).
  double value_tol = 1e-6;
  // Event times must match recomputation within tol·(1 + |t|).
  double time_tol = 1e-6;
  // Events at or before now() + slack are treated as a pending same-instant
  // cascade (multi-way ties, chdir jump repairs) and only checked for
  // adjacency, not for time agreement.
  double cascade_slack = 1e-9;
  // Stop after this many violations (the full truth re-derivation is
  // O(N·C) crossing computations; a broken sweep would flood the report).
  size_t max_violations = 16;
};

// Exhaustively re-derives the truth a SweepState is supposed to maintain
// (Lemma 7: the support is exactly the adjacent-pair atoms of the order at
// now(); Lemma 9: the event queue holds exactly each currently adjacent
// pair's earliest future intersection) and reports every divergence.
class SweepAuditor {
 public:
  explicit SweepAuditor(AuditOptions options = {}) : options_(options) {}

  // Audits an arbitrary view. O(N) crossing recomputations.
  AuditReport AuditView(const SweepView& view) const;

  // Audits a live state. If `mod` is given, additionally re-derives every
  // non-sentinel object's curve from its trajectory through the state's
  // g-distance and cross-checks the stored value at now() (catches stale
  // curves after chdir).
  AuditReport Audit(const SweepState& state,
                    const MovingObjectDatabase* mod = nullptr) const;

  const AuditOptions& options() const { return options_; }

 private:
  AuditOptions options_;
};

// Streaming audit: installs itself as `state`'s post-event hook on
// construction and audits after every processed event and structural
// mutation, accumulating the first violations found. Opt-in (each audit is
// O(N) crossing computations) — fuzzing and debug/test builds only.
//
// Also attaches as a SweepListener and counts the swap/insert/erase
// notifications it receives; every audit cross-checks that count, and the
// queue length, against the delta of state->stats() since attach. Those
// counts are the cost quantities of Theorems 4/5 and Lemma 9 and feed the
// metrics layer, so the accounting is under audit (kStatsDrift).
//
//   FutureQueryEngine engine(...);
//   AuditingObserver audit(&engine.state(), &engine.mod());
//   engine.Start(); engine.ApplyUpdate(u); ...
//   MODB_CHECK(audit.report().ok()) << audit.report().ToString();
class AuditingObserver : public SweepListener {
 public:
  // Attaches to `state` (not owned; must outlive the observer). `mod`, if
  // given, enables the curve re-derivation check and must stay in sync
  // with the state (the engines guarantee this).
  AuditingObserver(SweepState* state, const MovingObjectDatabase* mod = nullptr,
                   AuditOptions options = {});
  ~AuditingObserver();

  AuditingObserver(const AuditingObserver&) = delete;
  AuditingObserver& operator=(const AuditingObserver&) = delete;

  size_t audits_run() const { return audits_run_; }
  // Violations accumulated across all audits (deduplicated by audit: only
  // audits that found something contribute; capped at max_violations).
  const AuditReport& report() const { return accumulated_; }

  // SweepListener: tally the support changes actually delivered.
  void OnSwap(double time, ObjectId left, ObjectId right) override;
  void OnInsert(double time, ObjectId oid) override;
  void OnErase(double time, ObjectId oid) override;

 private:
  void RunAudit();

  SweepAuditor auditor_;
  SweepState* state_;
  const MovingObjectDatabase* mod_;
  size_t audits_run_ = 0;
  AuditReport accumulated_;
  // stats() and queue length at attach time and the notifications seen
  // since; compared on every audit.
  SweepStats baseline_;
  size_t baseline_queue_ = 0;
  uint64_t observed_swaps_ = 0;
  uint64_t observed_inserts_ = 0;
  uint64_t observed_erases_ = 0;
  bool stats_drift_reported_ = false;
};

}  // namespace modb

#endif  // MODB_VERIFY_AUDIT_H_
