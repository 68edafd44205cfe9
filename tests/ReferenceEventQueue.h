//===- tests/ReferenceEventQueue.h - Heap-based event queue ----*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pre-timing-wheel event queue: a binary heap of `std::function`
/// payloads with an `unordered_set` of lazily skipped cancellations.
/// Kept verbatim as (a) the differential-testing oracle for the wheel's
/// dispatch-order contract — identical (time, schedule-order) dispatch
/// under arbitrary schedule/cancel interleavings — and (b) the baseline
/// the timing wheel's dispatch-rate check (PerfRatioTest) is measured
/// against.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_TESTS_REFERENCEEVENTQUEUE_H
#define DOPE_TESTS_REFERENCEEVENTQUEUE_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

namespace dope {

/// Virtual-time event queue with the same contract as EventQueue, kept
/// as a reference implementation. Ids are the raw schedule sequence.
class ReferenceEventQueue {
public:
  using Id = uint64_t;

  ReferenceEventQueue() = default;
  ReferenceEventQueue(const ReferenceEventQueue &) = delete;
  ReferenceEventQueue &operator=(const ReferenceEventQueue &) = delete;

  double now() const { return Now; }

  Id scheduleAt(double Time, std::function<void()> Fn) {
    assert(Fn && "scheduling empty event");
    assert(Time >= Now && "scheduling into the past");
    const Id NewId = NextId++;
    Heap.push({Time, NewId, std::move(Fn)});
    ++Live;
    return NewId;
  }

  Id scheduleAfter(double Delay, std::function<void()> Fn) {
    assert(Delay >= 0.0 && "negative delay");
    return scheduleAt(Now + Delay, std::move(Fn));
  }

  void cancel(Id Which) {
    if (Which == 0 || Which >= NextId)
      return;
    if (Cancelled.insert(Which).second && Live > 0)
      --Live;
  }

  bool step(double EndTime) {
    while (!Heap.empty()) {
      const Entry &Top = Heap.top();
      if (Cancelled.count(Top.Sequence)) {
        Cancelled.erase(Top.Sequence);
        Heap.pop();
        continue;
      }
      if (Top.Time > EndTime)
        return false;
      std::function<void()> Fn = std::move(const_cast<Entry &>(Top).Fn);
      Now = Top.Time;
      Heap.pop();
      --Live;
      Fn();
      return true;
    }
    return false;
  }

  uint64_t runUntil(double EndTime) {
    uint64_t Dispatched = 0;
    while (step(EndTime))
      ++Dispatched;
    if (Now < EndTime)
      Now = EndTime;
    return Dispatched;
  }

  bool empty() const { return Live == 0; }
  size_t pendingEvents() const { return Live; }

private:
  struct Entry {
    double Time;
    Id Sequence;
    std::function<void()> Fn;
  };
  struct Later {
    bool operator()(const Entry &A, const Entry &B) const {
      if (A.Time != B.Time)
        return A.Time > B.Time;
      return A.Sequence > B.Sequence;
    }
  };

  double Now = 0.0;
  Id NextId = 1;
  size_t Live = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> Heap;
  std::unordered_set<Id> Cancelled;
};

} // namespace dope

#endif // DOPE_TESTS_REFERENCEEVENTQUEUE_H
