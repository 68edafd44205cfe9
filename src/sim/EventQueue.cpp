//===- sim/EventQueue.cpp - Discrete-event simulation core -----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/EventQueue.h"

#include <algorithm>

using namespace dope;

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
  N.Armed = true;
  N.Fn = std::move(Fn);
  ++Live;
  Heap.push_back({Time, NextSeq++, Index});
  std::push_heap(Heap.begin(), Heap.end(), EarlierFirst{});
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
  // The entry stays in the heap and the node is reclaimed when it
  // reaches the top; no search, no erase.
  N.Armed = false;
  N.Fn.reset();
  assert(Live > 0);
  --Live;
}

bool EventQueue::topIsDue(double EndTime) {
  while (!Heap.empty()) {
    const HeapEntry &Top = Heap.front();
    if (node(Top.Index).Armed)
      return Top.Time <= EndTime;
    const uint32_t Index = Top.Index;
    std::pop_heap(Heap.begin(), Heap.end(), EarlierFirst{});
    Heap.pop_back();
    freeNode(Index);
  }
  return false;
}

bool EventQueue::peek(double EndTime, double &Time, uint64_t &Seq) {
  if (!topIsDue(EndTime))
    return false;
  Time = Heap.front().Time;
  Seq = Heap.front().Seq;
  return true;
}

bool EventQueue::step(double EndTime) {
  if (!topIsDue(EndTime))
    return false;
  const HeapEntry Top = Heap.front();
  std::pop_heap(Heap.begin(), Heap.end(), EarlierFirst{});
  Heap.pop_back();
  // Move the callback out before recycling: the handler may schedule
  // more events and reuse this very node.
  SmallFn Fn = std::move(node(Top.Index).Fn);
  Now = Top.Time;
  freeNode(Top.Index);
  --Live;
  Fn();
  return true;
}

uint64_t EventQueue::runUntil(double EndTime) {
  uint64_t Dispatched = 0;
  while (step(EndTime))
    ++Dispatched;
  if (Now < EndTime)
    Now = EndTime; // idle or stopped on a future event
  return Dispatched;
}
