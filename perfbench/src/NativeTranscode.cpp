//===- perfbench/src/NativeTranscode.cpp - native-transcode workload ------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transcode server of examples/transcode_server.cpp on the real
/// executive: an outer DOALL loop over requests whose inner loop is a
/// read -> transform -> write pipeline, adapted by WQT-H with 3 threads.
/// One generator thread submits requests from a schedule of jittered
/// periodic bursts built from the seed before the run (open loop, fixed
/// rate), and latency is timed from each request's due time. Every output
/// checksum is compared with a sequential reference. The only workload
/// where the core, queue and apps layers run on real threads.
///
//===----------------------------------------------------------------------===//

#include "TimedMechanism.h"
#include "Workloads.h"

#include "apps/NativeKernels.h"
#include "core/Dope.h"
#include "mechanisms/WqtH.h"
#include "queue/WorkQueue.h"
#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <string>
#include <thread>

using namespace dope;
using namespace perfbench;

namespace {

constexpr unsigned FramesPerVideo = 16;
constexpr size_t FrameBytes = 4096;
constexpr unsigned TransformPasses = 40;
/// Distinct input videos; requests draw from this pool so the sequential
/// reference stays cheap.
constexpr uint32_t VideoPool = 64;
constexpr unsigned MaxThreads = 3;
/// Offered load: bursts of BurstSize requests, BurstsPerSecond (120
/// requests/s, about a fifth of what 3 threads serve in throughput mode).
/// Each burst alone fills the work queue past WQT-H's threshold, so the
/// input schedule, not queueing noise, drives the mode switches; a plain
/// Poisson stream at 300/s made latency swing by 2x between runs with the
/// host's CPU steal, and bursts of 6 at 20/s switched between two latency
/// regimes from run to run.
constexpr unsigned BurstSize = 12;
constexpr double BurstsPerSecond = 10.0;
constexpr double BurstJitter = 0.2;
/// Set-up samples for setup_s: SetupRepsOutsideLoad on each side of the
/// load and one before every burst; the median is reported.
constexpr unsigned SetupRepsOutsideLoad = 20;
/// The generator's quiet slot starts this long before each burst is due:
/// one idle server set-up, well under 1 ms.
constexpr int64_t QuietLeadNs = 20'000'000;
/// Latency statistics skip requests due in the first WarmupSeconds (at
/// most a quarter of the run): the first ~3 s after start show 2-10x the
/// steady-state latency, a start-up cost paid once per server, not per
/// request.
constexpr double WarmupSeconds = 3.0;
/// Latency windows hold 2 samples beyond the percentile: the tail here
/// comes from seconds in which the host stole most, and many windows
/// outvote them (windowPercentile).
constexpr double TailSamples = 2;

int64_t nowNs() { return SteadyClock::now().time_since_epoch().count(); }

double nsToMs(int64_t Ns) { return static_cast<double>(Ns) * 1e-6; }

/// The open-loop schedule: due offsets from the start of load and the
/// video each request transcodes. The program sees only this.
struct Schedule {
  std::vector<double> DueSeconds;
  std::vector<uint32_t> Videos;
};

/// Burst k is due at k / BurstsPerSecond plus a seeded jitter of up to
/// BurstJitter of the period, so bursts never pile up: clusters of a
/// Poisson process decided the tail, and made p99 differ from seed to seed
/// by a third. Every run of a given length offers the same number of
/// requests, so throughput does not vary with the seed.
Schedule makeSchedule(uint64_t Seed, double Seconds) {
  Rng R(Seed);
  std::vector<double> Bursts(
      static_cast<size_t>(std::lround(BurstsPerSecond * Seconds)));
  for (size_t K = 0; K != Bursts.size(); ++K)
    Bursts[K] = (static_cast<double>(K) + R.uniform(0.0, BurstJitter)) /
                BurstsPerSecond;
  Schedule S;
  for (double T : Bursts)
    for (unsigned I = 0; I != BurstSize; ++I) {
      S.DueSeconds.push_back(T);
      S.Videos.push_back(static_cast<uint32_t>(R.uniformInt(VideoPool)));
    }
  return S;
}

/// The sequential kernel: one whole request on the calling thread.
uint64_t transcodeSequential(uint32_t Video) {
  uint64_t Sum = 0;
  for (uint32_t F = 0; F != FramesPerVideo; ++F)
    Sum += frameChecksum(
        transformFrame(makeFrame(F, FrameBytes, Video), TransformPasses));
  return Sum;
}

struct Request {
  uint32_t Id = 0;
  uint32_t Video = 0;
  int64_t DueNs = 0;
};

/// Per-request inner pipeline state, reached through TaskRuntime::context.
struct TranscodeJob {
  uint32_t Video = 0;
  WorkQueue<Frame> Q1; // read -> transform
  WorkQueue<Frame> Q2; // transform -> write
  std::atomic<uint32_t> NextFrame{0};
  std::atomic<uint64_t> Checksum{0};
  std::atomic<bool> Aborted{false};
};

/// Samples shared by the executive's worker threads.
struct SharedSamples {
  std::mutex Mutex;
  Samples Values;
  void add(double V) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Values.add(V);
  }
};

/// Benchmark timers around the calls into the core and queue layers;
/// present only in the traced run.
struct LayerTimers {
  SharedSamples BeginNs, EndNs, InnerWaitMs, QuiesceRespawnMs;
  DecisionLog Decisions;
};

/// One server instance: the request queue, the task graph, the executive
/// and the per-request results. Requests carry their schedule index as
/// Id; each completes exactly once.
class TranscodeServer {
public:
  TranscodeServer(size_t Requests, LayerTimers *Timers)
      : Timers(Timers), Checksums(Requests), DoneNs(Requests),
        PoppedNs(Requests), Total(Requests) {
    buildGraph();
  }
  TranscodeServer(const TranscodeServer &) = delete;
  TranscodeServer &operator=(const TranscodeServer &) = delete;

  /// Dope::create under WQT-H; returns its wall seconds.
  double start() {
    DopeOptions Opts;
    Opts.MaxThreads = MaxThreads;
    Opts.MonitorIntervalSeconds = 0.002;
    Opts.MinReconfigIntervalSeconds = 0.01;
    WqtHParams Params;
    Params.QueueThreshold = 3.0;
    Params.NOff = 3;
    Params.NOn = 3;
    Params.MMax = 3; // read + transform + write
    std::unique_ptr<Mechanism> Mech = std::make_unique<WqtHMechanism>(Params);
    if (Timers)
      Mech = std::make_unique<TimedMechanism>(std::move(Mech),
                                              Timers->Decisions);
    Opts.Mech = std::move(Mech);
    const SteadyClock::time_point T0 = SteadyClock::now();
    Executive = Dope::create(Root, std::move(Opts));
    return secondsSince(T0);
  }

  void submit(const Request &R) { Requests.push(R); }

  /// Waits for every request to complete (or \p Seconds to pass) and for
  /// the executive to finish; false on timeout or failure.
  bool finish(double Seconds) {
    if (Total == 0)
      Requests.close();
    const bool Ended = Executive->waitFor(Seconds);
    if (!Ended) {
      Requests.close();
      Executive->requestStop();
      Executive->wait();
    }
    return Ended && Executive->finished();
  }

  uint64_t reconfigurations() const { return Executive->reconfigurationCount(); }
  uint64_t resubmitted() const { return Resubmitted.load(); }
  uint64_t completed() const { return Completed.load(); }
  const std::vector<uint64_t> &checksums() const { return Checksums; }
  const std::vector<int64_t> &doneNs() const { return DoneNs; }
  const std::vector<int64_t> &poppedNs() const { return PoppedNs; }

private:
  void buildGraph();
  TaskStatus serve(TaskRuntime &RT);

  LayerTimers *Timers;
  WorkQueue<Request> Requests;
  std::vector<uint64_t> Checksums;
  std::vector<int64_t> DoneNs;
  std::vector<int64_t> PoppedNs;
  const size_t Total;
  std::atomic<size_t> Completed{0};
  std::atomic<uint64_t> Resubmitted{0};
  TaskGraph Graph;
  ParDescriptor *Root = nullptr;
  std::unique_ptr<Dope> Executive;
};

void TranscodeServer::buildGraph() {
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
    Job->Q1.push(makeFrame(F, FrameBytes, Job->Video));
    (void)RT.end();
    return TaskStatus::Executing;
  };
  TaskFn TransformFn = [](TaskRuntime &RT) {
    auto *Job = static_cast<TranscodeJob *>(RT.context());
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
  Task *Read =
      Graph.createTask("read", ReadFn, LoadFn(), Graph.seqDescriptor());
  Task *Transform = Graph.createTask("transform", TransformFn, LoadFn(),
                                     Graph.parDescriptor());
  Task *Write =
      Graph.createTask("write", WriteFn, LoadFn(), Graph.seqDescriptor());
  ParDescriptor *Inner = Graph.createRegion({Read, Transform, Write});

  Task *Transcode = Graph.createTask(
      "transcode", [this](TaskRuntime &RT) { return serve(RT); },
      [this] { return static_cast<double>(Requests.size()); },
      Graph.createDescriptor(TaskKind::Parallel, {Inner}));
  Root = Graph.createRegion({Transcode});
}

TaskStatus TranscodeServer::serve(TaskRuntime &RT) {
  int64_t T0 = Timers ? nowNs() : 0;
  if (RT.begin() == TaskStatus::Suspended)
    return TaskStatus::Suspended;
  if (Timers) {
    const int64_t T1 = nowNs();
    Timers->BeginNs.add(static_cast<double>(T1 - T0));
    // The first outer begin that runs after a changed decision closes
    // that reconfiguration's quiesce -> respawn interval.
    const int64_t Changed =
        Timers->Decisions.LastChangeNs.exchange(0, std::memory_order_acq_rel);
    if (Changed != 0)
      Timers->QuiesceRespawnMs.add(nsToMs(T1 - Changed));
  }
  std::optional<Request> R = Requests.waitAndPop();
  if (!R)
    return TaskStatus::Finished;
  const int64_t Popped = nowNs();

  uint64_t Checksum = 0;
  bool Done = false;
  if (RT.innerActive()) {
    TranscodeJob Job;
    Job.Video = R->Video;
    T0 = Timers ? nowNs() : 0;
    const TaskStatus Inner = RT.wait(&Job);
    if (Timers)
      Timers->InnerWaitMs.add(nsToMs(nowNs() - T0));
    if (Inner == TaskStatus::Finished && !Job.Aborted.load()) {
      Checksum = Job.Checksum.load();
      Done = true;
    }
  } else {
    // Throughput mode: transcode inline, sequentially.
    Checksum = transcodeSequential(R->Video);
    Done = true;
  }

  if (!Done) {
    // Interrupted mid-request: resubmit it (requests are idempotent) and
    // quiesce.
    Resubmitted.fetch_add(1);
    Requests.push(*R);
    return TaskStatus::Suspended;
  }
  Checksums[R->Id] = Checksum;
  PoppedNs[R->Id] = Popped;
  DoneNs[R->Id] = nowNs();
  // The last completion ends the service: closing the queue releases the
  // replicas blocked on it. Interrupted requests are resubmitted before
  // this point, so the count is exact.
  if (Completed.fetch_add(1) + 1 == Total)
    Requests.close();

  T0 = Timers ? nowNs() : 0;
  const TaskStatus End = RT.end();
  if (Timers)
    Timers->EndNs.add(static_cast<double>(nowNs() - T0));
  return End == TaskStatus::Suspended ? TaskStatus::Suspended
                                      : TaskStatus::Executing;
}

/// What one load phase measured.
struct PhaseResult {
  double SetupSeconds = 0.0;
  double CreateSeconds = 0.0;
  double LoadSeconds = 0.0;
  /// Per verified request due after the warm-up: due time (seconds after
  /// the warm-up), latency (reference ms) and queue wait (wall ms) from
  /// that due time.
  std::vector<double> DueSeconds, LatencyMs, QueueWaitMs;
  Samples GeneratorLateMs;
  uint64_t Verified = 0;
  uint64_t Reconfigurations = 0;
  uint64_t Resubmitted = 0;
  uint64_t Completed = 0;
};

/// Builds and starts the server (timed, several times), replays
/// \p Plan open-loop from one generator thread, and checks every result
/// against \p Reference. The generator times one idle server's set-up in
/// the quiet slot before each burst and samples \p Ref right after sending
/// it; latencies and set-up times are reported in reference time.
PhaseResult runPhase(const Schedule &Plan,
                     const std::vector<uint64_t> &Reference,
                     LayerTimers *Timers, ReferenceSpeed &Ref, Outcome &Out) {
  PhaseResult P;
  const size_t N = Plan.DueSeconds.size();
  std::vector<RequestTime> SetupWalls;
  std::vector<double> CreateWalls;
  auto IdleSetup = [&] {
    const SteadyClock::time_point T0 = SteadyClock::now();
    TranscodeServer Idle(0, nullptr);
    CreateWalls.push_back(Idle.start());
    SetupWalls.push_back({secondsBetween(Ref.start(), T0), secondsSince(T0)});
    Idle.finish(10.0);
  };
  for (unsigned Rep = 0; Rep != SetupRepsOutsideLoad; ++Rep) {
    Ref.sampleEvery(0.05);
    IdleSetup();
  }
  if (Timers) // A change left open by an earlier phase is not this one's.
    Timers->Decisions.LastChangeNs.store(0, std::memory_order_release);
  const SteadyClock::time_point T0 = SteadyClock::now();
  TranscodeServer Server(N, Timers);
  CreateWalls.push_back(Server.start());
  SetupWalls.push_back({secondsBetween(Ref.start(), T0), secondsSince(T0)});

  const int64_t StartNs = nowNs();
  auto SleepUntil = [](int64_t Ns) {
    std::this_thread::sleep_until(
        SteadyClock::time_point(SteadyClock::duration(Ns)));
  };
  std::thread Generator([&] {
    for (size_t I = 0; I != N; ++I) {
      const int64_t DueNs =
          StartNs + static_cast<int64_t>(Plan.DueSeconds[I] * 1e9);
      // The quiet slot: the last burst is served, the next not yet due.
      // Thread spawning in Dope::create costs 2-6x more at some moments
      // than at others, for seconds at a time, so set-up is sampled here
      // across the whole load, not only before and after it.
      const int64_t QuietNs = DueNs - QuietLeadNs;
      if ((I == 0 || Plan.DueSeconds[I] != Plan.DueSeconds[I - 1]) &&
          QuietNs > nowNs()) {
        SleepUntil(QuietNs);
        IdleSetup();
      }
      SleepUntil(DueNs);
      P.GeneratorLateMs.add(nsToMs(nowNs() - DueNs));
      Server.submit({static_cast<uint32_t>(I), Plan.Videos[I], DueNs});
      // The kernel runs while the workers serve the burst just sent, so it
      // meets the host as the load does: three busy vCPUs, not one.
      if (I + 1 == N || Plan.DueSeconds[I + 1] != Plan.DueSeconds[I])
        Ref.sample();
    }
  });
  Generator.join();
  const double Slack = 60.0;
  if (!Server.finish(Slack))
    Out.fail("native-transcode: the executive did not finish within " +
             std::to_string(Slack) + " s of the last request");
  for (unsigned Rep = 0; Rep != SetupRepsOutsideLoad; ++Rep)
    IdleSetup();
  Ref.sample();
  std::vector<double> SetupSeconds;
  for (const RequestTime &S : SetupWalls)
    SetupSeconds.push_back(Ref.toReference(S.Seconds, S.At));
  P.SetupSeconds = median(std::move(SetupSeconds));
  P.CreateSeconds = median(CreateWalls);

  const double Warmup =
      Plan.DueSeconds.empty()
          ? 0.0
          : std::min(WarmupSeconds, Plan.DueSeconds.back() / 4);
  int64_t LastNs = StartNs;
  for (size_t I = 0; I != N; ++I) {
    const int64_t Done = Server.doneNs()[I];
    const int64_t DueNs =
        StartNs + static_cast<int64_t>(Plan.DueSeconds[I] * 1e9);
    const bool Ok =
        Done != 0 && Server.checksums()[I] == Reference[Plan.Videos[I]];
    Out.count(1, Ok ? 0 : 1);
    if (!Ok) {
      Out.fail("native-transcode: request " + std::to_string(I) +
               (Done == 0 ? " never completed" : " has a wrong checksum"));
      continue;
    }
    ++P.Verified;
    LastNs = std::max(LastNs, Done);
    if (Plan.DueSeconds[I] < Warmup)
      continue;
    P.DueSeconds.push_back(Plan.DueSeconds[I] - Warmup);
    const double DueAt = secondsBetween(
        Ref.start(), SteadyClock::time_point(SteadyClock::duration(DueNs)));
    P.LatencyMs.push_back(Ref.toReference(nsToMs(Done - DueNs), DueAt));
    P.QueueWaitMs.push_back(nsToMs(Server.poppedNs()[I] - DueNs));
  }
  P.LoadSeconds = nsToMs(LastNs - StartNs) * 1e-3;
  P.Reconfigurations = Server.reconfigurations();
  P.Resubmitted = Server.resubmitted();
  P.Completed = Server.completed();
  return P;
}

std::vector<uint64_t> referenceChecksums() {
  std::vector<uint64_t> Reference(VideoPool);
  for (uint32_t V = 0; V != VideoPool; ++V)
    Reference[V] = transcodeSequential(V);
  return Reference;
}

} // namespace

void perfbench::runNativeTranscode(const RunArgs &Args, Outcome &Out) {
  const std::vector<uint64_t> Reference = referenceChecksums();

  if (!Args.Trace) {
    const Schedule Plan = makeSchedule(Args.Seed, Args.Seconds);
    ReferenceSpeed Ref;
    const PhaseResult P = runPhase(Plan, Reference, nullptr, Ref, Out);
    Out.set("setup_s", P.SetupSeconds);
    Out.set("throughput_per_s",
            P.LoadSeconds > 0.0
                ? static_cast<double>(P.Verified) / P.LoadSeconds
                : 0.0);
    Out.set("latency_p50_ms",
            windowPercentile(P.DueSeconds, P.LatencyMs, 0.50, TailSamples));
    Out.set("latency_p99_ms",
            windowPercentile(P.DueSeconds, P.LatencyMs, 0.99, TailSamples));
    Out.set("verified_frac", Plan.DueSeconds.empty()
                                 ? 0.0
                                 : static_cast<double>(P.Verified) /
                                       static_cast<double>(Plan.DueSeconds.size()));
    Out.set("peak_rss_mb", peakRssMb());
    Ref.report();
    return;
  }

  // Traced run: the sequential kernel alone, then four phases of the same
  // schedule in the order plain, timed, timed, plain, so drift over the run
  // cancels in the timer overhead. The per-layer metrics come from the two
  // timed phases together.
  std::vector<double> ServiceMs;
  for (uint32_t V = 0; V != 16; ++V) {
    const SteadyClock::time_point T0 = SteadyClock::now();
    (void)transcodeSequential(V);
    ServiceMs.push_back(secondsSince(T0) * 1e3);
  }
  const Schedule Plan = makeSchedule(Args.Seed, Args.Seconds / 4);
  LayerTimers Timers;
  ReferenceSpeed Ref;
  PhaseResult Plain[2], Timed[2];
  Plain[0] = runPhase(Plan, Reference, nullptr, Ref, Out);
  Timed[0] = runPhase(Plan, Reference, &Timers, Ref, Out);
  Timed[1] = runPhase(Plan, Reference, &Timers, Ref, Out);
  Plain[1] = runPhase(Plan, Reference, nullptr, Ref, Out);

  // The timed phases' samples on one time line, the second after the first.
  std::vector<double> TimedDue, TimedQueueWaitMs;
  double Offset = 0.0;
  for (const PhaseResult &P : Timed) {
    for (double Due : P.DueSeconds)
      TimedDue.push_back(Offset + Due);
    TimedQueueWaitMs.insert(TimedQueueWaitMs.end(), P.QueueWaitMs.begin(),
                            P.QueueWaitMs.end());
    Offset += P.DueSeconds.empty() ? 0.0 : P.DueSeconds.back();
  }
  double OverheadSum = 0.0;
  for (unsigned Pair = 0; Pair != 2; ++Pair) {
    OverheadSum +=
        windowPercentile(Timed[Pair].DueSeconds, Timed[Pair].LatencyMs, 0.50,
                         TailSamples) /
        windowPercentile(Plain[Pair].DueSeconds, Plain[Pair].LatencyMs, 0.50,
                         TailSamples);
  }
  const double LoadSeconds = Timed[0].LoadSeconds + Timed[1].LoadSeconds;
  const uint64_t Completed = Timed[0].Completed + Timed[1].Completed;

  setMechanismMetrics(Out, Timers.Decisions, 1.0, LoadSeconds);
  Out.set("core.create_ms",
          (Timed[0].CreateSeconds + Timed[1].CreateSeconds) / 2 * 1e3);
  Out.set("core.begin_ns_p50", Timers.BeginNs.Values.percentile(0.50));
  Out.set("core.begin_ns_p99", Timers.BeginNs.Values.percentile(0.99));
  Out.set("core.end_ns_p50", Timers.EndNs.Values.percentile(0.50));
  Out.set("core.end_ns_p99", Timers.EndNs.Values.percentile(0.99));
  Out.set("core.inner_wait_ms_p50", Timers.InnerWaitMs.Values.percentile(0.50));
  Out.set("core.quiesce_respawn_ms_p50",
          Timers.QuiesceRespawnMs.Values.percentile(0.50));
  Out.set("core.quiesce_respawn_ms_p99",
          Timers.QuiesceRespawnMs.Values.percentile(0.99));
  Out.set("core.reconfigurations",
          static_cast<double>(Timed[0].Reconfigurations +
                              Timed[1].Reconfigurations));
  Out.set("core.resubmitted_frac",
          Completed ? static_cast<double>(Timed[0].Resubmitted +
                                          Timed[1].Resubmitted) /
                          static_cast<double>(Completed)
                    : 0.0);
  Out.set("queue.wait_ms_p50",
          windowPercentile(TimedDue, TimedQueueWaitMs, 0.50, TailSamples));
  Out.set("queue.wait_ms_p99",
          windowPercentile(TimedDue, TimedQueueWaitMs, 0.99, TailSamples));
  Out.set("apps.service_ms", median(ServiceMs));
  Out.set("bench.generator_late_ms_p99",
          std::max(Timed[0].GeneratorLateMs.percentile(0.99),
                   Timed[1].GeneratorLateMs.percentile(0.99)));
  // Each timed phase against the plain phase next to it, averaged.
  Out.set("bench.timer_overhead_frac", OverheadSum / 2 - 1.0);
  Out.set("bench.ref_kernel_ms", Ref.kernelSeconds() * 1e3);
}
