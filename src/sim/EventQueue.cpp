//===- sim/EventQueue.cpp - Discrete-event simulation core -----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/EventQueue.h"

#include <algorithm>
#include <bit>

using namespace dope;

uint64_t EventQueue::tickOf(double Time) const {
  const double Scaled = Time * TicksPerSecond;
  // Huge, infinite, or NaN times park in the overflow heap forever;
  // clamping avoids double->uint64 conversion UB.
  if (!(Scaled < 9.0e18))
    return UINT64_MAX;
  return static_cast<uint64_t>(Scaled);
}

uint32_t EventQueue::allocNode() {
  if (FreeList != NoIndex) {
    const uint32_t Index = FreeList;
    FreeList = node(Index).Next;
    return Index;
  }
  if (NodeCount == Chunks.size() * ChunkSize)
    Chunks.emplace_back(new Node[ChunkSize]);
  return NodeCount++;
}

void EventQueue::freeNode(uint32_t Index) {
  Node &N = node(Index);
  N.Fn.reset(); // drop captured state promptly
  N.Armed = false;
  if (++N.Gen == 0) // 0 must stay invalid across generation wrap
    N.Gen = 1;
  N.Next = FreeList;
  FreeList = Index;
}

EventId EventQueue::scheduleAt(double Time, SmallFn Fn) {
  assert(Fn && "scheduling empty event");
  assert(Time >= Now && "scheduling into the past");
  const uint32_t Index = allocNode();
  Node &N = node(Index);
  N.Time = Time;
  N.Seq = NextSeq++;
  N.Armed = true;
  N.Fn = std::move(Fn);
  ++Live;
  insertEntry({N.Time, N.Seq, Index});
  return (static_cast<uint64_t>(N.Gen) << 32) | Index;
}

void EventQueue::cancel(EventId Id) {
  const uint32_t Index = static_cast<uint32_t>(Id);
  const uint32_t Gen = static_cast<uint32_t>(Id >> 32);
  if (Gen == 0 || Index >= NodeCount)
    return;
  Node &N = node(Index);
  if (N.Gen != Gen || !N.Armed)
    return;
  // The node stays wherever it is (wheel slot, near heap, overflow) and
  // is reclaimed when next encountered; no search, no erase.
  N.Armed = false;
  N.Fn.reset();
  assert(Live > 0);
  --Live;
}

void EventQueue::insertEntry(const HeapEntry &E) {
  const uint64_t Tick = tickOf(E.Time);
  if (Tick <= CurTick) {
    Near.push_back(E);
    std::push_heap(Near.begin(), Near.end(), EarlierFirst{});
    return;
  }
  if ((Tick ^ CurTick) >> (Levels * SlotBits)) {
    Overflow.push_back(E);
    std::push_heap(Overflow.begin(), Overflow.end(), EarlierFirst{});
    return;
  }
  pushWheel(E, Tick);
}

void EventQueue::pushWheel(const HeapEntry &E, uint64_t Tick) {
  const uint64_t Diff = Tick ^ CurTick; // != 0 and < 64^Levels here
  const uint32_t Level =
      (63u - static_cast<uint32_t>(std::countl_zero(Diff))) / SlotBits;
  const uint32_t Slot =
      static_cast<uint32_t>(Tick >> (Level * SlotBits)) & (Slots - 1);
  Wheel[Level * Slots + Slot].push_back(E);
  Occupied[Level] |= uint64_t(1) << Slot;
}

bool EventQueue::lowestWheelBase(uint64_t &Base) const {
  for (uint32_t L = 0; L != Levels; ++L) {
    const uint64_t Mask = Occupied[L];
    if (!Mask)
      continue;
    // Every occupied slot's digit exceeds CurTick's digit at this level
    // (ticks are strictly in the future and share the higher digits),
    // so the raw minimum set bit is the earliest slot.
    const uint32_t S = static_cast<uint32_t>(std::countr_zero(Mask));
    const uint32_t Shift = L * SlotBits;
    const uint64_t High = CurTick >> (Shift + SlotBits);
    Base = ((High << SlotBits) | S) << Shift;
    return true;
  }
  return false;
}

void EventQueue::advanceTo(uint64_t TargetTick) {
  // Detach, highest level first, every slot the target maps into: those
  // are exactly the slots whose contents may now belong at a lower
  // level (or in the near heap). Slots with a larger digit than the
  // target's at their level remain correctly placed. A reinserted entry
  // always lands strictly below its detached level, and never in a slot
  // this advance also detaches (its digit differs from the target's at
  // the chosen level), so collecting everything first is safe.
  //
  // Cancelled events cascade as stale entries and are reclaimed when the
  // near heap purges them; the cascade itself never reads the slab.
  Cascade.clear();
  for (uint32_t L = Levels; L-- > 0;) {
    const uint32_t S =
        static_cast<uint32_t>(TargetTick >> (L * SlotBits)) & (Slots - 1);
    const uint64_t Bit = uint64_t(1) << S;
    if (!(Occupied[L] & Bit))
      continue;
    Occupied[L] &= ~Bit;
    std::vector<HeapEntry> &SlotVec = Wheel[L * Slots + S];
    Cascade.insert(Cascade.end(), SlotVec.begin(), SlotVec.end());
    SlotVec.clear(); // capacity retained for reuse
  }
  CurTick = TargetTick;
  for (const HeapEntry &E : Cascade)
    insertEntry(E);
  // Overflow entries whose tick caught up migrate inward so the
  // "everything outside Near is in a strictly later tick" invariant
  // holds.
  while (!Overflow.empty() && tickOf(Overflow.front().Time) <= CurTick) {
    const HeapEntry E = Overflow.front();
    std::pop_heap(Overflow.begin(), Overflow.end(), EarlierFirst{});
    Overflow.pop_back();
    insertEntry(E);
  }
}

bool EventQueue::refillNear(double EndTime) {
  const uint64_t EndTick = tickOf(EndTime);
  for (;;) {
    // Purge cancelled entries from the top, then check the earliest
    // live near event. The near top is the global minimum: every
    // wheel/overflow node has a strictly later tick, hence a strictly
    // later time.
    while (!Near.empty()) {
      const HeapEntry &Top = Near.front();
      if (node(Top.Index).Armed)
        return Top.Time <= EndTime;
      const uint32_t Index = Top.Index;
      std::pop_heap(Near.begin(), Near.end(), EarlierFirst{});
      Near.pop_back();
      freeNode(Index);
    }
    uint64_t WheelBase = 0;
    const bool HaveWheel = lowestWheelBase(WheelBase);
    const bool HaveOver = !Overflow.empty();
    if (!HaveWheel && !HaveOver)
      return false;
    uint64_t Target = HaveWheel ? WheelBase : UINT64_MAX;
    if (HaveOver)
      Target = std::min(Target, tickOf(Overflow.front().Time));
    if (Target > EndTick)
      return false; // earliest possible event is past EndTime's tick
    advanceTo(Target);
  }
}

bool EventQueue::peek(double EndTime, double &Time, uint64_t &Seq) {
  if (!refillNear(EndTime))
    return false;
  Time = Near.front().Time;
  Seq = Near.front().Seq;
  return true;
}

bool EventQueue::step(double EndTime) {
  for (;;) {
    if (!refillNear(EndTime))
      return false;
    const uint32_t Index = Near.front().Index;
    std::pop_heap(Near.begin(), Near.end(), EarlierFirst{});
    Near.pop_back();
    Node &N = node(Index);
    if (!N.Armed) { // cancelled between refill and pop (paranoia)
      freeNode(Index);
      continue;
    }
    // Move the callback out before recycling: the handler may schedule
    // more events and reuse this very node.
    SmallFn Fn = std::move(N.Fn);
    Now = N.Time;
    freeNode(Index);
    --Live;
    Fn();
    return true;
  }
}

uint64_t EventQueue::runUntil(double EndTime) {
  uint64_t Dispatched = 0;
  while (step(EndTime))
    ++Dispatched;
  if (Now < EndTime)
    Now = EndTime; // idle or stopped on a future event
  return Dispatched;
}
