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
/// The engine is a four-level hierarchical timing wheel over a slab of
/// pooled event nodes:
///
///  - Virtual time is quantized into ticks (2^-10 s). Each wheel level
///    has 64 slots; level L buckets events whose tick differs from the
///    current tick in digit L (radix-64). A per-level occupancy bitmask
///    finds the next populated slot with one ctz.
///  - Events whose tick is at or before the current tick sit in a small
///    binary min-heap ("near" heap) ordered by (time, schedule
///    sequence). Because every wheel/overflow event lives in a strictly
///    later tick, the near-heap top is always the global minimum — so
///    dispatch order is exactly time order with FIFO tie-break, the
///    same contract the old binary heap provided, and golden traces
///    stay byte-identical.
///  - Events beyond the wheel horizon (2^24 ticks ≈ 4.7 h) wait in an
///    overflow heap and migrate inward as time advances.
///  - Nodes are recycled through a free list; cancellation bumps a
///    per-node generation counter, so a stale EventId can never cancel
///    a recycled node and cancelled nodes cost no search or erase.
///  - Callbacks are SmallFn (48-byte small-buffer optimization), so
///    scheduling an event allocates nothing in steady state.
///
/// Periodic ticks (decisions, power samples) are not in the wheel: they
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
  static constexpr uint32_t SlotBits = 6;
  static constexpr uint32_t Slots = 1u << SlotBits; // 64
  static constexpr uint32_t Levels = 4;
  static constexpr uint32_t NoIndex = 0xffffffffu;
  /// Ticks per virtual second. Power of two so quantization is exact
  /// for binary-representable times.
  static constexpr double TicksPerSecond = 1024.0;

  struct Node {
    double Time = 0.0;
    uint64_t Seq = 0;      // schedule order; FIFO tie-break
    uint32_t Gen = 1;      // bumped on free; 0 is never valid
    uint32_t Next = 0;     // free list link
    bool Armed = false;    // false once fired or cancelled
    SmallFn Fn;
  };

  /// Heap entry for the near and overflow heaps. Time/Seq are copied
  /// out of the node so comparisons never chase the slab.
  struct HeapEntry {
    double Time;
    uint64_t Seq;
    uint32_t Index;
  };
  struct EarlierFirst {
    bool operator()(const HeapEntry &A, const HeapEntry &B) const {
      if (A.Time != B.Time)
        return A.Time > B.Time; // min-heap via std::*_heap
      return A.Seq > B.Seq;
    }
  };

  uint64_t tickOf(double Time) const;
  uint32_t allocNode();
  void freeNode(uint32_t Index);
  /// Routes an entry to the near heap, a wheel slot, or overflow
  /// depending on its tick relative to CurTick. Never touches the slab:
  /// entries carry (Time, Seq) copies, so slotting and cascading stay in
  /// contiguous memory.
  void insertEntry(const HeapEntry &E);
  void pushWheel(const HeapEntry &E, uint64_t Tick);
  /// Lower bound on the smallest tick stored anywhere in the wheel.
  bool lowestWheelBase(uint64_t &Base) const;
  /// Advances CurTick to \p TargetTick (<= every wheel/overflow tick),
  /// cascading the slots the target maps into.
  void advanceTo(uint64_t TargetTick);
  /// Ensures the near-heap top is the earliest live event; returns true
  /// iff that event's time is <= \p EndTime.
  bool refillNear(double EndTime);

  static constexpr uint32_t ChunkShift = 10;
  static constexpr uint32_t ChunkSize = 1u << ChunkShift;

  Node &node(uint32_t Index) {
    return Chunks[Index >> ChunkShift][Index & (ChunkSize - 1)];
  }
  const Node &node(uint32_t Index) const {
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

  // Timing wheel. Slots are contiguous entry vectors (capacity retained
  // across reuse), so detaching a slot during a cascade is a sequential
  // scan rather than a pointer chase through the node slab.
  uint64_t CurTick = 0;
  uint64_t Occupied[Levels] = {};
  std::vector<HeapEntry> Wheel[Levels * Slots];
  /// Scratch buffer for entries detached by advanceTo.
  std::vector<HeapEntry> Cascade;

  std::vector<HeapEntry> Near;
  std::vector<HeapEntry> Overflow;
};

} // namespace dope

#endif // DOPE_SIM_EVENTQUEUE_H
