//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
///   dope_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                  [--source <id>]
///
/// Runs one workload and prints two JSON lines: the machine and build
/// fingerprint, then the result ({"correct", "attempted", "failed",
/// "metrics"}) with the end-to-end (--trace 0) or per-layer (--trace 1)
/// metrics the workload measured, as bare numbers by name. perfbench/run.py
/// completes the result from BENCHMARK.json, the one list of metric names
/// and units. Exit status 0 only when the outputs checked out.
///
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "dope_perfbench: %s\n"
               "usage: dope_perfbench --workload "
               "nest-wqth|pipeline-profile|native-transcode|colocation-48\n"
               "         --seed <n> --seconds <s> --trace <0|1> "
               "[--source <id>]\n",
               Why);
  return 2;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

/// The machine and build a result came from. A build with assertions
/// kept (DOPE_KEEP_ASSERTS, or any build without NDEBUG) is marked
/// "asserts" so it is never compared with release numbers.
void printFingerprint(const std::string &Workload, const RunArgs &Args,
                      const std::string &Source) {
#ifdef NDEBUG
  const bool Asserts = false;
#else
  const bool Asserts = true;
#endif
  std::printf("{\"fingerprint\": {\"nproc\": %u, \"compiler\": %s, "
              "\"build_type\": %s, \"dope_keep_asserts\": %s, "
              "\"assertions\": %s, \"comparable_as\": %s, \"source\": %s}, "
              "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d}\n",
              std::thread::hardware_concurrency(),
              jsonString(std::string("GCC ") + __VERSION__).c_str(),
              jsonString(PERFBENCH_BUILD_TYPE).c_str(),
              Asserts ? "true" : "false", Asserts ? "true" : "false",
              jsonString(Asserts ? "asserts" : "release").c_str(),
              jsonString(Source).c_str(), jsonString(Workload).c_str(),
              static_cast<unsigned long long>(Args.Seed),
              number(Args.Seconds).c_str(), Args.Trace ? 1 : 0);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, Source = "unknown";
  RunArgs Args;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      Workload = Value;
    } else if (Flag == "--seed") {
      Args.Seed = std::strtoull(Value, &End, 10);
      HaveSeed = *Value != '\0' && *End == '\0';
    } else if (Flag == "--seconds") {
      Args.Seconds = std::strtod(Value, &End);
      HaveSeconds = *End == '\0' && Args.Seconds > 0.0 &&
                    Args.Seconds <= 120.0;
    } else if (Flag == "--trace") {
      HaveTrace = std::strcmp(Value, "0") == 0 || std::strcmp(Value, "1") == 0;
      Args.Trace = std::strcmp(Value, "1") == 0;
    } else if (Flag == "--source") {
      Source = Value;
    } else {
      return usage(("unknown option " + Flag).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds (0 < s <= 120) and --trace 0|1 are "
                 "required");

  void (*Run)(const RunArgs &, Outcome &) = nullptr;
  if (Workload == "nest-wqth")
    Run = runNestWqth;
  else if (Workload == "pipeline-profile")
    Run = runPipelineProfile;
  else if (Workload == "native-transcode")
    Run = runNativeTranscode;
  else if (Workload == "colocation-48")
    Run = runColocation48;
  else
    return usage(("unknown workload '" + Workload + "'").c_str());

  printFingerprint(Workload, Args, Source);
  std::fflush(stdout);

  Outcome Out;
  Run(Args, Out);
  if (Out.attempted() == 0)
    Out.fail(Workload + ": no work attempted");

  std::string Metrics;
  for (const auto &[Name, Value] : Out.values()) {
    if (!std::isfinite(Value))
      Out.fail("metric " + Name + " is not finite");
    if (!Metrics.empty())
      Metrics += ", ";
    Metrics += jsonString(Name) + ": " +
               number(std::isfinite(Value) ? Value : 0.0);
  }
  for (const std::string &Error : Out.errors())
    std::fprintf(stderr, "perfbench: check failed: %s\n", Error.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Out.correct() ? "true" : "false",
              static_cast<unsigned long long>(Out.attempted()),
              static_cast<unsigned long long>(Out.failed()), Metrics.c_str());
  return Out.correct() ? 0 : 1;
}
