//===- mechanisms/Factory.cpp - Canonical mechanism construction -----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mechanisms/Factory.h"

#include "mechanisms/Fdp.h"
#include "mechanisms/Seda.h"
#include "mechanisms/Tbf.h"
#include "mechanisms/Tpc.h"
#include "mechanisms/WqLinear.h"
#include "mechanisms/WqtH.h"

using namespace dope;

std::unique_ptr<Mechanism>
dope::createMechanismByName(const std::string &Name) {
  if (Name == "WQT-H") {
    WqtHParams P;
    P.QueueThreshold = 8.0;
    P.NOff = 3;
    P.NOn = 3;
    P.MMax = 8;
    return std::make_unique<WqtHMechanism>(P);
  }
  if (Name == "WQ-Linear") {
    WqLinearParams P;
    P.MMin = 1;
    P.MMax = 8;
    P.QMax = 16.0;
    return std::make_unique<WqLinearMechanism>(P);
  }
  if (Name == "TBF") {
    TbfParams P;
    P.EnableFusion = true;
    return std::make_unique<TbfMechanism>(P);
  }
  if (Name == "TB") {
    TbfParams P;
    P.EnableFusion = false;
    return std::make_unique<TbfMechanism>(P);
  }
  if (Name == "FDP")
    return std::make_unique<FdpMechanism>(FdpParams());
  if (Name == "SEDA") {
    SedaParams P;
    P.HighWatermark = 6.0;
    P.LowWatermark = 1.0;
    P.PerStageCap = 8;
    return std::make_unique<SedaMechanism>(P);
  }
  if (Name == "TPC")
    return std::make_unique<TpcMechanism>(TpcParams());
  return nullptr;
}

std::unique_ptr<Mechanism>
dope::createMechanismByName(const std::string &Name,
                            const WarmStartHint *Hint) {
  std::unique_ptr<Mechanism> Mech = createMechanismByName(Name);
  if (Mech && Hint && Hint->appliesTo(Name))
    Mech->seedWarmStart(*Hint);
  return Mech;
}

const std::vector<ConformanceCase> &dope::conformanceCases() {
  static const std::vector<ConformanceCase> Cases = {
      {"WQT-H", "nest-load-swing"},
      {"WQ-Linear", "nest-load-swing"},
      {"TBF", "pipeline-imbalance"},
      {"TB", "pipeline-imbalance"},
      {"FDP", "pipeline-steady"},
      {"SEDA", "pipeline-bursts"},
      {"TPC", "pipeline-power-ramp"},
      // Arbiter coverage: the same mechanisms under mid-stream thread
      // envelope (lease) steps — grants widen, revocations force the
      // planned configuration back under the new ceiling.
      {"TB", "pipeline-lease-steps", "TB-lease"},
      {"WQT-H", "nest-lease-steps", "WQT-H-lease"},
  };
  return Cases;
}
