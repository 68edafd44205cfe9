//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One entry point per workload. Each runs its load for RunArgs::Seconds,
/// checks its outputs, and fills an Outcome: the end-to-end metrics when
/// RunArgs::Trace is false, the per-layer metrics when it is true.
/// perfbench/README.md says why each workload exists.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Measure.h"

namespace perfbench {

/// NestServerSim, x264 model, WQT-H at load factor 0.6 (fig. 11).
void runNestWqth(const RunArgs &Args, Outcome &Out);

/// The what-if profile flow on PipelineSim, ferret model, FDP.
void runPipelineProfile(const RunArgs &Args, Outcome &Out);

/// The native transcode server on the real executive under WQT-H, fed by
/// an open-loop generator of jittered periodic bursts.
void runNativeTranscode(const RunArgs &Args, Outcome &Out);

/// ColocationSim, 48 tenants, Arbiter policy.
void runColocation48(const RunArgs &Args, Outcome &Out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
