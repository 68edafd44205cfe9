//===- sim/EventQueue.h - Discrete-event simulation core -------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event engine under the simulated multicore platform.
///
/// Why a simulator at all: the paper's evaluation ran on a 24-core Xeon;
/// this reproduction targets machines where that parallelism is not
/// physically available. Every evaluated phenomenon — the latency versus
/// throughput tradeoff, adaptation dynamics, oversubscription costs,
/// power capping — is a scheduling/queueing property, so a deterministic
/// virtual-time simulation exercises the *same mechanism code* (via
/// core/Mechanism.h) while making the experiments reproducible anywhere.
///
/// The engine is one binary min-heap ordered by (time, schedule
/// sequence) over a slab of pooled event nodes:
///
///  - Dispatch order is time order with FIFO tie-break, so runs are
///    deterministic and golden traces stay byte-identical.
///  - The keys live in the heap entries, not in the nodes, so sifting
///    never touches the slab.
///  - Nodes are recycled through a free list; cancellation bumps a
///    per-node generation counter, so a stale EventId can never cancel
///    a recycled node. A cancelled entry stays in the heap until it
///    reaches the top, so cancelling costs no search or erase.
///  - Callbacks are SmallFn (48-byte small-buffer optimization), so
///    scheduling an event allocates nothing in steady state.
///
/// Periodic ticks (decisions, power samples) are not in the heap: they
/// live in sim/TickLoop, which takes each tick's sequence number from
/// this queue, so ticks and events still interleave by (time, sequence)
/// exactly as if every tick were queued.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_SIM_EVENTQUEUE_H
#define DOPE_SIM_EVENTQUEUE_H

#include "support/SmallFn.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace dope {

/// Handle used to cancel a scheduled event. Packs (generation, slab
/// index); 0 is never a valid id.
using EventId = uint64_t;

/// A virtual-time event queue. Events fire in time order; ties break by
/// schedule order (FIFO), keeping runs deterministic.
class EventQueue {
public:
  EventQueue() = default;
  EventQueue(const EventQueue &) = delete;
  EventQueue &operator=(const EventQueue &) = delete;

  /// Current virtual time in seconds.
  double now() const { return Now; }

  /// Schedules \p Fn at absolute time \p Time (>= now).
  EventId scheduleAt(double Time, SmallFn Fn);

  /// Schedules \p Fn after \p Delay seconds.
  EventId scheduleAfter(double Delay, SmallFn Fn) {
    assert(Delay >= 0.0 && "negative delay");
    return scheduleAt(Now + Delay, std::move(Fn));
  }

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  void cancel(EventId Id);

  /// Runs events until the queue drains or virtual time would exceed
  /// \p EndTime. Returns the number of events dispatched. On return,
  /// now() == EndTime unless an event at exactly EndTime fired last.
  uint64_t runUntil(double EndTime);

  /// Runs a single event if one is pending at or before \p EndTime;
  /// returns false otherwise.
  bool step(double EndTime);

  /// Stores the (time, sequence) of the earliest live event at or before
  /// \p EndTime, the one step(EndTime) runs next; false if there is none.
  bool peek(double EndTime, double &Time, uint64_t &Seq);

  /// Takes the sequence number the next scheduled event would get, for a
  /// tick that runs outside the queue (sim/TickLoop.h).
  uint64_t takeSeq() { return NextSeq++; }
  uint64_t nextSeq() const { return NextSeq; }

  /// Sets the clock to a tick's time (>= now()) without dispatching.
  void advanceClock(double Time) {
    assert(Time >= Now && "clock moving backwards");
    Now = Time;
  }

  bool empty() const { return Live == 0; }
  size_t pendingEvents() const { return Live; }

private:
  static constexpr uint32_t NoIndex = 0xffffffffu;

  struct Node {
    uint32_t Gen = 1;   // bumped on free; 0 is never valid
    uint32_t Next = 0;  // free list link
    bool Armed = false; // false once fired or cancelled
    SmallFn Fn;
  };

  struct HeapEntry {
    double Time;
    uint64_t Seq; // schedule order; FIFO tie-break
    uint32_t Index;
  };
  struct EarlierFirst {
    bool operator()(const HeapEntry &A, const HeapEntry &B) const {
      if (A.Time != B.Time)
        return A.Time > B.Time; // min-heap via std::*_heap
      return A.Seq > B.Seq;
    }
  };

  uint32_t allocNode();
  void freeNode(uint32_t Index);
  /// Pops cancelled entries off the heap top; returns true iff the top
  /// is then a live event at or before \p EndTime.
  bool topIsDue(double EndTime);

  static constexpr uint32_t ChunkShift = 10;
  static constexpr uint32_t ChunkSize = 1u << ChunkShift;

  Node &node(uint32_t Index) {
    return Chunks[Index >> ChunkShift][Index & (ChunkSize - 1)];
  }

  double Now = 0.0;
  uint64_t NextSeq = 1;
  size_t Live = 0;

  // Node slab: fixed-size chunks for stable addresses with two-load
  // power-of-two indexing; free list threaded via Node::Next.
  std::vector<std::unique_ptr<Node[]>> Chunks;
  uint32_t NodeCount = 0;
  uint32_t FreeList = NoIndex;

  std::vector<HeapEntry> Heap;
};

} // namespace dope

#endif // DOPE_SIM_EVENTQUEUE_H
