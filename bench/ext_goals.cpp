//===- bench/ext_goals.cpp - Extension experiments --------------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extension experiments beyond the paper's figures, exercising claims
/// the paper makes in prose:
///
///   1. Time-varying load (Sec. 8.2.1: "there are periods of heavier and
///      lighter load"): a step pattern alternates light and heavy
///      phases; the adaptive mechanisms must beat both statics, and the
///      measured average inner DoP must sit strictly between the two
///      static extremes ("an average DoP somewhere in between").
///
///   2. The energy-delay-product goal (Sec. 4: administrators "may
///      invent more complex performance goals such as minimizing the
///      energy-delay product"): the EDP mechanism picks large extents
///      for scalable inner loops, small ones for overhead-dominated
///      loops, and degrades toward throughput mode under pressure.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "apps/NestApps.h"
#include "apps/PipelineApps.h"
#include "core/Placement.h"
#include "mechanisms/Edp.h"
#include "mechanisms/ServerNest.h"
#include "mechanisms/WqLinear.h"
#include "mechanisms/WqtH.h"
#include "sim/NestServerSim.h"
#include "sim/PipelineSim.h"
#include "workload/Arrivals.h"

#include <cstdio>

using namespace dope;
using namespace dope::bench;

int main(int Argc, char **Argv) {
  OptionParser Options("Extension experiments: time-varying load and the "
                       "energy-delay-product goal");
  addCommonOptions(Options);
  parseOrExit(Options, Argc, Argv);
  const bool Csv = Options.getFlag("csv");
  const bool Quick = Options.getFlag("quick");
  const unsigned Contexts = static_cast<unsigned>(Options.getInt("contexts"));
  const uint64_t Seed = static_cast<uint64_t>(Options.getInt("seed"));

  bool Ok = true;

  // --- 1: step-pattern load ----------------------------------------------
  {
    NestAppBundle App = makeX264App();
    NestSimOptions SimOpts;
    SimOpts.Contexts = Contexts;
    SimOpts.NumTransactions = Quick ? 400 : 1000;
    SimOpts.Seed = Seed;
    // Light 0.25 / heavy 0.95 phases, each long enough for several
    // transactions at the heavy rate.
    const double Phase = 40.0 * App.Model.SeqServiceSeconds / Contexts *
                         10.0; // ~10 heavy transactions per phase
    SimOpts.Trace = LoadTrace::makeStepPattern(0.25, 0.95, Phase, 50);

    NestServerSim Sim(App.Model, SimOpts);
    const double StaticSeq =
        Sim.run(nullptr, Contexts, 1).Stats.meanResponseTime();
    const double StaticPar =
        Sim.run(nullptr, outerExtentFor(Contexts, App.MMax), App.MMax)
            .Stats.meanResponseTime();
    WqtHMechanism WqtH(App.WqtH);
    NestSimResult HResult = Sim.run(&WqtH, Contexts, 1);
    WqLinearMechanism WqLin(App.WqLinear);
    NestSimResult LResult = Sim.run(&WqLin, Contexts, 1);

    // Average inner DoP across the run, from the decision trace.
    double DopSum = 0.0;
    for (size_t I = 0; I != LResult.InnerExtentTrace.size(); ++I)
      DopSum += LResult.InnerExtentTrace.point(I).Value;
    const double MeanDop =
        LResult.InnerExtentTrace.empty()
            ? 0.0
            : DopSum / static_cast<double>(LResult.InnerExtentTrace.size());

    Table T({"scheme", "mean response (s)"});
    T.addRow({"Static-Seq <24,1>", Table::formatDouble(StaticSeq, 2)});
    T.addRow({"Static-Par <3,8>", Table::formatDouble(StaticPar, 2)});
    T.addRow({"WQT-H", Table::formatDouble(
                           HResult.Stats.meanResponseTime(), 2)});
    T.addRow({"WQ-Linear",
              Table::formatDouble(LResult.Stats.meanResponseTime(), 2)});
    emitTable("Ext 1: x264 under a light/heavy step load (0.25 / 0.95)", T,
              Csv);
    std::printf("WQ-Linear mean inner DoP across the run: %.2f\n\n",
                MeanDop);

    const double BestStatic = std::min(StaticSeq, StaticPar);
    Ok &= checkShape(LResult.Stats.meanResponseTime() < BestStatic,
                     "WQ-Linear beats both statics under swinging load");
    Ok &= checkShape(HResult.Stats.meanResponseTime() < BestStatic * 1.1,
                     "WQT-H at least matches the best static under "
                     "swinging load");
    Ok &= checkShape(MeanDop > 1.3 &&
                         MeanDop < static_cast<double>(App.MMax) - 0.3,
                     "the average DoP sits strictly between the static "
                     "extremes (measured " +
                         Table::formatDouble(MeanDop, 2) + ")");
  }

  // --- 2: the EDP goal ------------------------------------------------------
  {
    Table T({"curve", "demand 0.1", "demand 0.5", "demand 0.9"});
    // Scalable Monte Carlo-ish loop vs. overhead-heavy compression loop.
    EdpMechanism Scalable({makeSwaptionsApp().Model.Curve, 8, 1.15, 0});
    EdpMechanism Overheady({makeBzipApp().Model.Curve, 8, 1.15, 0});
    auto Row = [&](const std::string &Name, EdpMechanism &M) {
      T.addRow({Name, Table::formatInt(M.extentForDemand(0.1)),
                Table::formatInt(M.extentForDemand(0.5)),
                Table::formatInt(M.extentForDemand(0.9))});
    };
    Row("swaptions (near-linear)", Scalable);
    Row("bzip (fixed-cost)", Overheady);
    emitTable("Ext 2: EDP-optimal inner extent vs demand", T, Csv);

    Ok &= checkShape(Scalable.extentForDemand(0.1) >
                         Overheady.extentForDemand(0.1),
                     "scalable loops run wider under the EDP goal");
    Ok &= checkShape(Scalable.extentForDemand(0.95) == 1,
                     "under saturation the EDP goal degrades to "
                     "throughput mode");

    // End to end: the EDP mechanism must keep the system stable (no
    // response blow-up) while saving energy-delay at light load.
    NestAppBundle App = makeSwaptionsApp();
    NestSimOptions SimOpts;
    SimOpts.Contexts = Contexts;
    SimOpts.LoadFactor = 0.3;
    SimOpts.NumTransactions = Quick ? 300 : 800;
    SimOpts.Seed = Seed;
    NestServerSim Sim(App.Model, SimOpts);
    EdpMechanism Edp({App.Model.Curve, 8, 1.15, 0});
    NestSimResult R = Sim.run(&Edp, Contexts, 1);
    const double StaticSeq =
        Sim.run(nullptr, Contexts, 1).Stats.meanResponseTime();
    Ok &= checkShape(R.Stats.meanResponseTime() < StaticSeq,
                     "EDP improves delay over sequential transactions at "
                     "light load");
  }

  // --- 3: placement locality ("on which hardware thread should each
  // stage be placed to maximize locality of communication", Sec. 1) ----
  {
    PipelineAppModel Ferret = makeFerretApp();
    PipelineSimOptions PipeOpts;
    PipeOpts.Contexts = Contexts;
    PipeOpts.Seed = Seed;
    PipeOpts.NumItems = Quick ? 600 : 1500;
    PipeOpts.CommSecondsPerHop = 0.25;

    Table T({"placement", "per-item comm cost", "throughput (q/s)"});
    const std::vector<unsigned> Extents = {1, 2, 14, 2, 4, 1};
    const Topology Topo; // the paper's 4 x 6 platform

    const double LocalCost =
        meanCommCost(Topo, placePartitioned(Topo, Extents),
                     RoutingPolicy::LocalityPreferring);
    const double ObliviousCost =
        meanCommCost(Topo, placeStriped(Topo, Extents),
                     RoutingPolicy::Uniform);

    PipeOpts.Place = PlacementPolicy::LocalityAware;
    PipelineSim LocalSim(Ferret, PipeOpts);
    const double LocalTput = LocalSim.run(nullptr, Extents).Throughput;
    PipeOpts.Place = PlacementPolicy::Oblivious;
    PipelineSim ObliviousSim(Ferret, PipeOpts);
    const double ObliviousTput =
        ObliviousSim.run(nullptr, Extents).Throughput;

    T.addRow({"locality-aware (partitioned)",
              Table::formatDouble(LocalCost, 2),
              Table::formatDouble(LocalTput, 3)});
    T.addRow({"oblivious (striped)", Table::formatDouble(ObliviousCost, 2),
              Table::formatDouble(ObliviousTput, 3)});
    emitTable("Ext 3: stage placement on the 4x6-socket platform "
              "(ferret, comm 0.25 s/hop)",
              T, Csv);

    Ok &= checkShape(LocalCost < ObliviousCost * 0.8,
                     "partitioned placement cuts per-item communication "
                     "cost");
    Ok &= checkShape(LocalTput > ObliviousTput,
                     "locality-aware placement yields higher throughput");
  }

  return Ok ? 0 : 1;
}
