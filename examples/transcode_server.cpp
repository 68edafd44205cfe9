//===- examples/transcode_server.cpp - The paper's running example ---------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The video-transcoding server of Secs. 2-3 on the real DoPE run-time:
/// a two-level loop nest where the outer loop iterates over submitted
/// videos (DOALL across transactions) and the inner loop transcodes one
/// video as a read -> transform -> write pipeline.
///
/// The parallelism is described once; WQT-H then toggles between
/// latency mode  <(1, DOALL), (3, PIPE)>   (parallel inner pipeline) and
/// throughput mode <(N, DOALL), (1, SEQ)>  (sequential transcode)
/// as the work-queue occupancy swings between a burst phase and a light
/// phase. Output checksums verify that no reconfiguration ever corrupts
/// a transcoded video; videos interrupted mid-flight by a suspension are
/// re-submitted and re-transcoded from scratch (transactions are
/// idempotent).
///
//===----------------------------------------------------------------------===//

#include "apps/NativeKernels.h"
#include "core/Dope.h"
#include "mechanisms/WqtH.h"
#include "queue/WorkQueue.h"
#include "support/Clock.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

using namespace dope;

namespace {

constexpr unsigned FramesPerVideo = 16;
constexpr size_t FrameBytes = 4096;
constexpr unsigned TransformPasses = 40;
constexpr int NumVideos = 40;

struct VideoRequest {
  int Id = 0;
  double SubmitTime = 0.0;
};

/// Per-transaction pipeline state, reached by the shared inner functors
/// through TaskRuntime::context().
struct TranscodeJob {
  int VideoId = 0;
  WorkQueue<Frame> Q1; // read -> transform
  WorkQueue<Frame> Q2; // transform -> write
  std::atomic<uint32_t> NextFrame{0};
  std::atomic<uint64_t> Checksum{0};
  std::atomic<bool> Aborted{false};
};

uint64_t transcodeFrameChecksum(int VideoId, uint32_t FrameIndex) {
  const Frame In = makeFrame(FrameIndex, FrameBytes,
                             static_cast<uint64_t>(VideoId));
  return frameChecksum(transformFrame(In, TransformPasses));
}

/// Reference result computed sequentially, for verification.
uint64_t referenceChecksum(int VideoId) {
  uint64_t Sum = 0;
  for (uint32_t F = 0; F != FramesPerVideo; ++F)
    Sum += transcodeFrameChecksum(VideoId, F);
  return Sum;
}

} // namespace

int main() {
  WorkQueue<VideoRequest> Requests;
  std::mutex ResultsMutex;
  std::map<int, uint64_t> Results;
  std::map<int, double> ResponseTimes;
  std::atomic<uint64_t> Retranscodes{0};

  TaskGraph Graph;

  // --- Inner pipeline: read -> transform -> write ------------------------
  TaskFn ReadFn = [](TaskRuntime &RT) {
    auto *Job = static_cast<TranscodeJob *>(RT.context());
    if (RT.begin() == TaskStatus::Suspended) {
      // FiniCB role: steer downstream to a consistent state.
      Job->Aborted.store(true);
      Job->Q1.close();
      return TaskStatus::Suspended;
    }
    const uint32_t F = Job->NextFrame.fetch_add(1);
    if (F >= FramesPerVideo) {
      Job->Q1.close();
      return TaskStatus::Finished;
    }
    Job->Q1.push(makeFrame(F, FrameBytes,
                           static_cast<uint64_t>(Job->VideoId)));
    (void)RT.end();
    return TaskStatus::Executing;
  };
  TaskFn TransformFn = [](TaskRuntime &RT) {
    auto *Job = static_cast<TranscodeJob *>(RT.context());
    // Like the paper's Transform, this stage ignores suspension and
    // drains to the sentinel (queue closure).
    std::optional<Frame> In = Job->Q1.waitAndPop();
    if (!In) {
      Job->Q2.close();
      return TaskStatus::Finished;
    }
    Job->Q2.push(transformFrame(*In, TransformPasses));
    return TaskStatus::Executing;
  };
  TaskFn WriteFn = [](TaskRuntime &RT) {
    auto *Job = static_cast<TranscodeJob *>(RT.context());
    std::optional<Frame> Out = Job->Q2.waitAndPop();
    if (!Out)
      return TaskStatus::Finished;
    Job->Checksum.fetch_add(frameChecksum(*Out));
    return TaskStatus::Executing;
  };

  Task *Read = Graph.createTask("read", ReadFn, LoadFn(),
                                Graph.seqDescriptor());
  Task *Transform = Graph.createTask("transform", TransformFn, LoadFn(),
                                     Graph.parDescriptor());
  Task *Write = Graph.createTask("write", WriteFn, LoadFn(),
                                 Graph.seqDescriptor());
  ParDescriptor *InnerPipe = Graph.createRegion({Read, Transform, Write});

  // --- Outer loop over submitted videos ---------------------------------
  TaskFn TranscodeFn = [&](TaskRuntime &RT) {
    if (RT.begin() == TaskStatus::Suspended)
      return TaskStatus::Suspended;
    std::optional<VideoRequest> Request = Requests.waitAndPop();
    if (!Request)
      return TaskStatus::Finished;

    uint64_t Checksum = 0;
    bool Completed = false;
    if (RT.innerActive()) {
      TranscodeJob Job;
      Job.VideoId = Request->Id;
      const TaskStatus Inner = RT.wait(&Job);
      if (Inner == TaskStatus::Finished && !Job.Aborted.load()) {
        Checksum = Job.Checksum.load();
        Completed = true;
      }
    } else {
      // Throughput mode: transcode inline, sequentially.
      for (uint32_t F = 0; F != FramesPerVideo; ++F)
        Checksum += transcodeFrameChecksum(Request->Id, F);
      Completed = true;
    }

    if (!Completed) {
      // Interrupted mid-video: resubmit the transaction and quiesce.
      Retranscodes.fetch_add(1);
      Requests.push(*Request);
      return TaskStatus::Suspended;
    }
    {
      std::lock_guard<std::mutex> Lock(ResultsMutex);
      Results[Request->Id] = Checksum;
      ResponseTimes[Request->Id] =
          monotonicSeconds() - Request->SubmitTime;
      // The last completed transaction ends the service: closing the
      // request queue releases any replicas blocked on it. (Interrupted
      // transactions are re-submitted before this point, so the count
      // is exact.)
      if (Results.size() == static_cast<size_t>(NumVideos))
        Requests.close();
    }
    if (RT.end() == TaskStatus::Suspended)
      return TaskStatus::Suspended;
    return TaskStatus::Executing;
  };
  Task *Transcode = Graph.createTask(
      "transcode", TranscodeFn,
      [&] { return static_cast<double>(Requests.size()); },
      Graph.createDescriptor(TaskKind::Parallel, {InnerPipe}));
  ParDescriptor *Root = Graph.createRegion({Transcode});

  // --- Launch under WQT-H ------------------------------------------------
  DopeOptions Opts;
  Opts.MaxThreads = 4;
  Opts.MonitorIntervalSeconds = 0.002;
  Opts.MinReconfigIntervalSeconds = 0.01;
  WqtHParams Params;
  Params.QueueThreshold = 3.0;
  Params.NOff = 3;
  Params.NOn = 3;
  Params.MMax = 3; // read + transform + write
  Opts.Mech = std::make_unique<WqtHMechanism>(Params);
  std::unique_ptr<Dope> Executive = Dope::create(Root, std::move(Opts));

  // --- Simulated users: a burst phase, then a light phase ----------------
  std::thread Feeder([&] {
    int Id = 0;
    for (; Id != NumVideos / 2; ++Id) {
      Requests.push({Id, monotonicSeconds()});
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    for (; Id != NumVideos; ++Id) {
      Requests.push({Id, monotonicSeconds()});
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    // The queue is closed by the worker that completes the last video,
    // not here: interrupted transactions may still need re-submission.
  });
  Feeder.join();
  Executive->wait();

  // --- Verify ------------------------------------------------------------
  int Verified = 0;
  for (const auto &[VideoId, Checksum] : Results)
    if (Checksum == referenceChecksum(VideoId))
      ++Verified;

  double MeanResponse = 0.0;
  for (const auto &[VideoId, Response] : ResponseTimes)
    MeanResponse += Response;
  MeanResponse /= ResponseTimes.empty() ? 1.0 : ResponseTimes.size();

  std::printf("transcode_server: %d/%d videos verified, mean response "
              "%.3f s\n",
              Verified, NumVideos, MeanResponse);
  std::printf("  reconfigurations: %llu, interrupted-and-retranscoded: "
              "%llu\n",
              static_cast<unsigned long long>(
                  Executive->reconfigurationCount()),
              static_cast<unsigned long long>(Retranscodes.load()));
  std::printf("  final configuration: %s\n",
              toString(*Root, Executive->currentConfig()).c_str());
  return Verified == NumVideos ? 0 : 1;
}
