//===- tools/dope_explore.cpp - Interactive experiment runner --------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A general-purpose experiment runner over the simulated platform:
/// pick an application, a mechanism, and a workload, get the paper-style
/// metrics. Where the bench/ harnesses regenerate the paper's fixed
/// figures, this tool answers ad-hoc questions ("how does FDP do on
/// dedup at 16 contexts?", "what does WQT-H's extent trace look like at
/// load 0.85?") without writing code.
///
/// Examples:
///   dope_explore --app ferret --mechanism tbf --items 3000
///   dope_explore --app x264 --mechanism wq-linear --load 0.8 --trace
///   dope_explore --app dedup --mechanism tpc --power-budget 540
///   dope_explore --app swaptions --mechanism edp --load 0.4
///
//===----------------------------------------------------------------------===//

#include "apps/NestApps.h"
#include "apps/PipelineApps.h"
#include "mechanisms/Dpm.h"
#include "mechanisms/Edp.h"
#include "mechanisms/Fdp.h"
#include "mechanisms/Seda.h"
#include "mechanisms/ServerNest.h"
#include "mechanisms/Tbf.h"
#include "mechanisms/Tpc.h"
#include "mechanisms/WqLinear.h"
#include "mechanisms/WqtH.h"
#include "sim/NestServerSim.h"
#include "sim/PipelineSim.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <cstdio>
#include <memory>
#include <string>

using namespace dope;

namespace {

std::unique_ptr<Mechanism> makeMechanism(const std::string &Name,
                                         const NestAppBundle *Nest) {
  if (Name == "none" || Name == "static")
    return nullptr;
  if (Name == "wqt-h")
    return std::make_unique<WqtHMechanism>(Nest ? Nest->WqtH : WqtHParams());
  if (Name == "wq-linear")
    return std::make_unique<WqLinearMechanism>(Nest ? Nest->WqLinear
                                                    : WqLinearParams());
  if (Name == "tbf")
    return std::make_unique<TbfMechanism>();
  if (Name == "tb")
    return std::make_unique<TbfMechanism>(
        TbfParams{0.5, /*EnableFusion=*/false, 4});
  if (Name == "fdp")
    return std::make_unique<FdpMechanism>();
  if (Name == "seda")
    return std::make_unique<SedaMechanism>();
  if (Name == "dpm")
    return std::make_unique<DpmMechanism>();
  if (Name == "tpc")
    return std::make_unique<TpcMechanism>();
  if (Name == "edp" && Nest)
    return std::make_unique<EdpMechanism>(
        EdpParams{Nest->Model.Curve, Nest->MMax, 1.15, 0});
  std::fprintf(stderr, "error: unknown mechanism '%s'\n", Name.c_str());
  std::exit(1);
}

int runNest(const NestAppBundle &App, const OptionParser &Options) {
  NestSimOptions SimOpts;
  SimOpts.Contexts = static_cast<unsigned>(Options.getInt("contexts"));
  SimOpts.LoadFactor = Options.getDouble("load");
  SimOpts.NumTransactions =
      static_cast<uint64_t>(Options.getInt("items"));
  SimOpts.Seed = static_cast<uint64_t>(Options.getInt("seed"));
  NestServerSim Sim(App.Model, SimOpts);

  std::unique_ptr<Mechanism> Mech =
      makeMechanism(Options.getString("mechanism"), &App);
  const unsigned InitInner =
      static_cast<unsigned>(Options.getInt("inner"));
  const unsigned InitOuter = outerExtentFor(SimOpts.Contexts, InitInner);
  NestSimResult R = Sim.run(Mech.get(), InitOuter, InitInner);

  Table T({"metric", "value"});
  T.addRow({"transactions", Table::formatInt(
                                static_cast<long long>(R.Stats.count()))});
  T.addRow({"mean response (s)",
            Table::formatDouble(R.Stats.meanResponseTime(), 3)});
  T.addRow({"p95 response (s)",
            Table::formatDouble(R.Stats.responsePercentile(0.95), 3)});
  T.addRow({"mean exec (s)",
            Table::formatDouble(R.Stats.meanExecTime(), 3)});
  T.addRow({"mean wait (s)",
            Table::formatDouble(R.Stats.meanWaitTime(), 3)});
  T.addRow({"throughput (/s)", Table::formatDouble(R.Throughput, 4)});
  T.addRow({"reconfigurations",
            Table::formatInt(static_cast<long long>(R.Reconfigurations))});
  std::printf("%s", T.renderText().c_str());

  if (Options.getFlag("trace")) {
    std::printf("\ninner-extent decisions (time, extent):\n");
    const TimeSeries &Trace = R.InnerExtentTrace;
    const size_t Step = std::max<size_t>(1, Trace.size() / 40);
    for (size_t I = 0; I < Trace.size(); I += Step)
      std::printf("  %8.1f  %g\n", Trace.point(I).Time,
                  Trace.point(I).Value);
  }
  return 0;
}

int runPipeline(const PipelineAppModel &App, const OptionParser &Options) {
  PipelineSimOptions SimOpts;
  SimOpts.Contexts = static_cast<unsigned>(Options.getInt("contexts"));
  SimOpts.Seed = static_cast<uint64_t>(Options.getInt("seed"));
  SimOpts.NumItems = static_cast<uint64_t>(Options.getInt("items"));
  SimOpts.PowerBudgetWatts = Options.getDouble("power-budget");
  const double Load = Options.getDouble("load");
  PipelineSim Probe(App, SimOpts);
  if (Load > 0.0) {
    std::vector<unsigned> Even;
    for (const PipelineStageSpec &S : App.Stages)
      Even.push_back(S.Parallel
                         ? std::max(1u, (SimOpts.Contexts - 2) /
                                            static_cast<unsigned>(
                                                App.Stages.size() - 2))
                         : 1);
    SimOpts.OpenLoop = true;
    SimOpts.ArrivalRate = Load * Probe.analyticThroughput(Even);
  }
  PipelineSim Sim(App, SimOpts);

  std::unique_ptr<Mechanism> Mech =
      makeMechanism(Options.getString("mechanism"), nullptr);
  PipelineSimResult R = Sim.run(Mech.get(), {});

  Table T({"metric", "value"});
  T.addRow({"items", Table::formatInt(
                         static_cast<long long>(R.ItemsCompleted))});
  T.addRow({"throughput (/s)", Table::formatDouble(R.Throughput, 4)});
  if (SimOpts.OpenLoop) {
    T.addRow({"mean response (s)",
              Table::formatDouble(R.Stats.meanResponseTime(), 3)});
    T.addRow({"p95 response (s)",
              Table::formatDouble(R.Stats.responsePercentile(0.95), 3)});
  }
  T.addRow({"reconfigurations",
            Table::formatInt(static_cast<long long>(R.Reconfigurations))});
  std::string Extents;
  for (unsigned E : R.FinalExtents) {
    if (!Extents.empty())
      Extents += ' ';
    Extents += std::to_string(E);
  }
  T.addRow({"final extents", Extents + (R.EndedFused ? " (fused)" : "")});
  std::printf("%s", T.renderText().c_str());

  if (Options.getFlag("trace")) {
    std::printf("\nthroughput windows (time, items/s):\n");
    const TimeSeries &Trace = R.ThroughputSeries;
    const size_t Step = std::max<size_t>(1, Trace.size() / 40);
    for (size_t I = 0; I < Trace.size(); I += Step)
      std::printf("  %8.1f  %.3f\n", Trace.point(I).Time,
                  Trace.point(I).Value);
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  OptionParser Options(
      "dope_explore: run any application model under any mechanism on "
      "the simulated 24-context platform.\n"
      "apps: x264 swaptions bzip gimp (server nests) | ferret dedup "
      "(batch pipelines)\n"
      "mechanisms: none wqt-h wq-linear edp (nests) | tbf tb fdp seda "
      "dpm tpc (pipelines)");
  Options.addString("app", "ferret", "application model");
  Options.addString("mechanism", "tbf", "adaptation mechanism");
  Options.addInt("contexts", 24, "hardware contexts");
  Options.addInt("items", 2000, "transactions / items");
  Options.addDouble("load", 0.5,
                    "load factor (nests; >0 makes pipelines open-loop)");
  Options.addInt("inner", 1, "initial inner extent (nests)");
  Options.addDouble("power-budget", 0.0, "watts; 0 = unconstrained");
  Options.addInt("seed", 42, "workload seed");
  Options.addFlag("trace", "print the decision/throughput trace");
  if (!Options.parse(Argc, Argv)) {
    std::fprintf(stderr, "error: %s\n%s", Options.error().c_str(),
                 Options.helpText().c_str());
    return 1;
  }
  if (Options.helpRequested()) {
    std::printf("%s", Options.helpText().c_str());
    return 0;
  }

  const std::string AppName = Options.getString("app");
  for (const NestAppBundle &App : allNestApps())
    if (App.Model.Name == AppName)
      return runNest(App, Options);
  for (const PipelineAppModel &App : allPipelineApps())
    if (App.Name == AppName)
      return runPipeline(App, Options);
  std::fprintf(stderr, "error: unknown application '%s'\n",
               AppName.c_str());
  return 1;
}
