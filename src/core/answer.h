#ifndef MODB_CORE_ANSWER_H_
#define MODB_CORE_ANSWER_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "geom/interval.h"
#include "trajectory/trajectory.h"

namespace modb {

namespace obs {
class CostCell;
}  // namespace obs

// The time-varying answer of an FO(f) query: a piecewise-constant function
// from time to sets of objects. This is the finite representation of the
// snapshot answer Q^s (§4); the existential (Q^∃) and universal (Q^∀)
// semantics are folds over it.
//
// Two construction styles:
//  * Sweep kernels call Record(time, set) as support changes arrive; the
//    evolution is right-continuous (at a change instant the new set holds).
//  * The cell-decomposition oracle calls AddSegment with explicit
//    intervals, including degenerate point segments for equality instants.
class AnswerTimeline {
 public:
  struct Segment {
    TimeInterval interval;
    std::set<ObjectId> answer;
  };

  // Begins recording at `start` with an empty current answer.
  explicit AnswerTimeline(double start);

  // Declares that from `time` on the answer is `answer`. Times must be
  // non-decreasing; equal-set updates are merged.
  void Record(double time, std::set<ObjectId> answer);

  // Explicit segment append (intervals must be non-overlapping and
  // ordered). Used by the oracle.
  void AddSegment(TimeInterval interval, std::set<ObjectId> answer);

  // Closes the timeline at `end`. Only segments up to `end` remain.
  void Finish(double end);

  bool finished() const { return finished_; }
  double start() const { return start_; }
  // Number of Record() calls that changed the answer set (the same
  // condition modb.query.answer_changes counts). Publishers compare it
  // against the value at their last publish to skip unchanged answers.
  uint64_t changes() const { return changes_; }
  const std::vector<Segment>& segments() const { return segments_; }

  // The answer at time t (t within [start, end]). At a boundary shared by a
  // point segment and a cell, the point segment wins; otherwise the segment
  // containing t.
  std::set<ObjectId> AnswerAt(double t) const;

  // Q^∃: objects in the answer at some time (union over segments).
  std::set<ObjectId> Existential() const;

  // Q^∀: objects in the answer at every time (intersection over segments).
  std::set<ObjectId> Universal() const;

  std::string ToString() const;

  // Cost-attribution sink: when set, each real answer change (the same
  // condition modb.query.answer_changes counts) also charges the owning
  // query's ledger cell: answer_changes, answer_delta (symmetric
  // difference vs the previous set) and last_change_trace (the cascade's
  // trace id, for db-trace replay). Kernels set this before their initial
  // Record so the ledger reconciles exactly with the registry metric.
  void SetCostSink(obs::CostCell* cost) { cost_ = cost; }

 private:
  double start_;
  double pending_time_;
  std::set<ObjectId> pending_answer_;
  bool has_pending_ = false;
  bool explicit_mode_ = false;
  bool finished_ = false;
  uint64_t changes_ = 0;
  std::vector<Segment> segments_;
  obs::CostCell* cost_ = nullptr;
};

}  // namespace modb

#endif  // MODB_CORE_ANSWER_H_
