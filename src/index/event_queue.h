#ifndef MODB_INDEX_EVENT_QUEUE_H_
#define MODB_INDEX_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trajectory/trajectory.h"

namespace modb {

// An intersection event: the g-distance curves of `left` and `right` —
// currently adjacent, with `left` preceding — cross at `time`.
struct SweepEvent {
  double time = 0.0;
  ObjectId left = kInvalidObjectId;
  ObjectId right = kInvalidObjectId;

  friend bool operator==(const SweepEvent& a, const SweepEvent& b) {
    return a.time == b.time && a.left == b.left && a.right == b.right;
  }
};

// Deterministic ordering: by time, ties broken by the pair.
struct SweepEventLess {
  bool operator()(const SweepEvent& a, const SweepEvent& b) const {
    if (a.time != b.time) return a.time < b.time;
    if (a.left != b.left) return a.left < b.left;
    return a.right < b.right;
  }
};

// The event queue E of §5. Per Lemma 9's scheme it holds at most one event
// per pair of *currently adjacent* objects (their earliest future
// intersection); when two objects cease to be adjacent their event is
// deleted. This bounds the queue length by N - 1.
//
// Lemma 9 keys events by adjacent pair and prescribes a leftist tree with
// handles. This is a 4-ary array min-heap indexed by the event's *left*
// object instead: the sweep only ever queues an event for a pair (l, r)
// while r is l's current successor, so each object is the left endpoint of
// at most one queued event, and a dense slot per left object replaces the
// pair-keyed map of handles. No per-node allocation, no tree rebalancing:
// Push/ErasePair are one hash probe plus a short sift in a flat array, with
// the same O(log N) bounds. Requires the one-event-per-left invariant (Push
// and BulkBuild CHECK-fail on a second event for the same left object);
// SweepState maintains it at every schedule site.
class EventQueue {
 public:
  // Inserts an event for the pair (event.left, event.right); event.left
  // must not already have an event.
  void Push(const SweepEvent& event);

  // Removes the pair's event if present; returns whether one was removed.
  // A queued event for `left` with a different right object stays queued.
  bool ErasePair(ObjectId left, ObjectId right);

  bool HasPair(ObjectId left, ObjectId right) const;

  // The earliest event (queue must be nonempty).
  const SweepEvent& Min() const;

  // Removes and returns the earliest event.
  SweepEvent PopMin();

  // Replaces the queue contents with `events` (at most one per left
  // object) in O(|events|) — the Theorem 10 fast path.
  void BulkBuild(std::vector<SweepEvent> events);

  // Every queued event, sorted by SweepEventLess. O(N log N); audit and
  // debugging only — not on the sweep's hot path.
  std::vector<SweepEvent> Snapshot() const;

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

 private:
  static constexpr uint32_t kArity = 4;

  struct Slot {
    SweepEvent event;
    uint32_t heap_pos = 0;
  };

  bool Less(uint32_t a, uint32_t b) const {
    return SweepEventLess()(slots_[a].event, slots_[b].event);
  }
  void MoveTo(uint32_t slot, uint32_t pos) {
    heap_[pos] = slot;
    slots_[slot].heap_pos = pos;
  }
  void SiftUp(uint32_t pos);
  void SiftDown(uint32_t pos);
  void RemoveAt(uint32_t pos);
  uint32_t AllocSlot();

  std::vector<uint32_t> heap_;   // Slot indices, heap-ordered by event.
  std::vector<Slot> slots_;      // Stable storage; freed entries recycled.
  std::vector<uint32_t> free_slots_;
  std::unordered_map<ObjectId, uint32_t> slot_of_;  // left -> slot index.
};

}  // namespace modb

#endif  // MODB_INDEX_EVENT_QUEUE_H_
