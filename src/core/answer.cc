#include "core/answer.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "obs/modb_metrics.h"
#include "obs/query_cost.h"
#include "obs/trace.h"

namespace modb {

AnswerTimeline::AnswerTimeline(double start)
    : start_(start), pending_time_(start), has_pending_(true) {}

void AnswerTimeline::Record(double time, std::set<ObjectId> answer) {
  MODB_CHECK(!finished_);
  MODB_CHECK(!explicit_mode_) << "Record after AddSegment";
  MODB_CHECK_GE(time, pending_time_);
  if (answer == pending_answer_) return;
  ++changes_;
  obs::M().answer_changes->Increment();
  obs::TraceInstant(obs::SpanName::kAnswerChange, obs::kTraceNoId, time,
                    answer.size(), /*coarse=*/true);
  if (cost_ != nullptr) {
    cost_->answer_changes.fetch_add(1, std::memory_order_relaxed);
    // Symmetric-difference size: sets are ordered, one linear walk.
    uint64_t delta = 0;
    auto a = pending_answer_.begin();
    auto b = answer.begin();
    while (a != pending_answer_.end() && b != answer.end()) {
      if (*a < *b) { ++delta; ++a; }
      else if (*b < *a) { ++delta; ++b; }
      else { ++a; ++b; }
    }
    delta += std::distance(a, pending_answer_.end());
    delta += std::distance(b, answer.end());
    cost_->answer_delta.fetch_add(delta, std::memory_order_relaxed);
    const uint64_t trace = obs::CurrentTraceId();
    if (trace != 0) {
      cost_->last_change_trace.store(trace, std::memory_order_relaxed);
    }
  }
  if (time > pending_time_) {
    segments_.push_back(
        Segment{TimeInterval(pending_time_, time), pending_answer_});
  }
  pending_time_ = time;
  pending_answer_ = std::move(answer);
}

void AnswerTimeline::AddSegment(TimeInterval interval,
                                std::set<ObjectId> answer) {
  MODB_CHECK(!finished_);
  MODB_CHECK(!interval.empty());
  if (!segments_.empty() && !explicit_mode_) {
    MODB_CHECK(false) << "AddSegment after Record";
  }
  explicit_mode_ = true;
  has_pending_ = false;
  if (!segments_.empty()) {
    MODB_CHECK_GE(interval.lo, segments_.back().interval.hi);
  }
  // Merge with the previous segment when contiguous and equal.
  if (!segments_.empty() && segments_.back().interval.hi == interval.lo &&
      segments_.back().answer == answer) {
    segments_.back().interval.hi = interval.hi;
    return;
  }
  segments_.push_back(Segment{interval, std::move(answer)});
}

void AnswerTimeline::Finish(double end) {
  MODB_CHECK(!finished_);
  if (has_pending_) {
    MODB_CHECK_GE(end, pending_time_);
    segments_.push_back(
        Segment{TimeInterval(pending_time_, end), pending_answer_});
  }
  finished_ = true;
}

std::set<ObjectId> AnswerTimeline::AnswerAt(double t) const {
  const Segment* best = nullptr;
  for (const Segment& segment : segments_) {
    if (segment.interval.lo > t) break;
    if (!segment.interval.Contains(t)) continue;
    // Prefer point segments; otherwise the latest-starting segment
    // (right-continuity at shared boundaries).
    if (best == nullptr || segment.interval.Length() == 0.0 ||
        segment.interval.lo >= best->interval.lo) {
      if (best != nullptr && best->interval.Length() == 0.0) continue;
      best = &segment;
    }
  }
  MODB_CHECK(best != nullptr) << "AnswerAt(" << t << ") outside timeline";
  return best->answer;
}

std::set<ObjectId> AnswerTimeline::Existential() const {
  std::set<ObjectId> result;
  for (const Segment& segment : segments_) {
    result.insert(segment.answer.begin(), segment.answer.end());
  }
  return result;
}

std::set<ObjectId> AnswerTimeline::Universal() const {
  std::set<ObjectId> result;
  bool first = true;
  for (const Segment& segment : segments_) {
    if (first) {
      result = segment.answer;
      first = false;
      continue;
    }
    std::set<ObjectId> intersection;
    std::set_intersection(result.begin(), result.end(),
                          segment.answer.begin(), segment.answer.end(),
                          std::inserter(intersection, intersection.begin()));
    result = std::move(intersection);
    if (result.empty()) break;
  }
  return result;
}

std::string AnswerTimeline::ToString() const {
  std::ostringstream out;
  for (const Segment& segment : segments_) {
    out << segment.interval.ToString() << " -> {";
    bool first = true;
    for (ObjectId oid : segment.answer) {
      if (!first) out << ", ";
      out << "o" << oid;
      first = false;
    }
    out << "}\n";
  }
  return out.str();
}

}  // namespace modb
