//===- support/OptionParser.cpp - Tiny command line parser ----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/OptionParser.h"

#include <cassert>
#include <cstdlib>

using namespace dope;

OptionParser::OptionParser(std::string ProgramDescription)
    : Description(std::move(ProgramDescription)) {}

void OptionParser::addString(const std::string &Name,
                             const std::string &Default,
                             const std::string &Help) {
  assert(!Options.count(Name) && "duplicate option");
  Options[Name] = {OptionKind::String, Default, Default, Help, false};
  DeclOrder.push_back(Name);
}

void OptionParser::addInt(const std::string &Name, long long Default,
                          const std::string &Help) {
  assert(!Options.count(Name) && "duplicate option");
  Options[Name] = {OptionKind::Int, std::to_string(Default),
                   std::to_string(Default), Help, false};
  DeclOrder.push_back(Name);
}

void OptionParser::addDouble(const std::string &Name, double Default,
                             const std::string &Help) {
  assert(!Options.count(Name) && "duplicate option");
  Options[Name] = {OptionKind::Double, std::to_string(Default),
                   std::to_string(Default), Help, false};
  DeclOrder.push_back(Name);
}

void OptionParser::addFlag(const std::string &Name, const std::string &Help) {
  assert(!Options.count(Name) && "duplicate option");
  Options[Name] = {OptionKind::Flag, "0", "0", Help, false};
  DeclOrder.push_back(Name);
}

bool OptionParser::parse(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      HelpRequested = true;
      continue;
    }
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }

    std::string Name = Arg.substr(2);
    std::string Value;
    bool HasValue = false;
    const size_t Eq = Name.find('=');
    if (Eq != std::string::npos) {
      Value = Name.substr(Eq + 1);
      Name = Name.substr(0, Eq);
      HasValue = true;
    }

    auto It = Options.find(Name);
    if (It == Options.end()) {
      Error = "unknown option '--" + Name + "'";
      return false;
    }
    Option &Opt = It->second;

    if (Opt.Kind == OptionKind::Flag) {
      if (HasValue) {
        Error = "flag '--" + Name + "' does not take a value";
        return false;
      }
      Opt.Value.assign(1, '1');
      Opt.Seen = true;
      continue;
    }

    if (!HasValue) {
      if (I + 1 >= Argc) {
        Error = "option '--" + Name + "' expects a value";
        return false;
      }
      Value = Argv[++I];
    }

    // Validate typed values eagerly so harnesses fail fast.
    char *End = nullptr;
    if (Opt.Kind == OptionKind::Int) {
      (void)std::strtoll(Value.c_str(), &End, 10);
      if (End == Value.c_str() || *End != '\0') {
        Error = "option '--" + Name + "' expects an integer, got '" + Value +
                "'";
        return false;
      }
    } else if (Opt.Kind == OptionKind::Double) {
      (void)std::strtod(Value.c_str(), &End);
      if (End == Value.c_str() || *End != '\0') {
        Error = "option '--" + Name + "' expects a number, got '" + Value +
                "'";
        return false;
      }
    }
    Opt.Value = Value;
    Opt.Seen = true;
  }
  return true;
}

const OptionParser::Option *OptionParser::find(const std::string &Name) const {
  auto It = Options.find(Name);
  assert(It != Options.end() && "querying undeclared option");
  return &It->second;
}

std::string OptionParser::getString(const std::string &Name) const {
  return find(Name)->Value;
}

long long OptionParser::getInt(const std::string &Name) const {
  const Option *Opt = find(Name);
  assert(Opt->Kind == OptionKind::Int && "option is not an integer");
  return std::strtoll(Opt->Value.c_str(), nullptr, 10);
}

double OptionParser::getDouble(const std::string &Name) const {
  const Option *Opt = find(Name);
  assert((Opt->Kind == OptionKind::Double || Opt->Kind == OptionKind::Int) &&
         "option is not numeric");
  return std::strtod(Opt->Value.c_str(), nullptr);
}

bool OptionParser::getFlag(const std::string &Name) const {
  const Option *Opt = find(Name);
  assert(Opt->Kind == OptionKind::Flag && "option is not a flag");
  return Opt->Value == "1";
}

std::string OptionParser::helpText() const {
  std::string Out;
  if (!Description.empty())
    Out += Description + "\n\n";
  Out += "Options:\n";
  for (const std::string &Name : DeclOrder) {
    const Option &Opt = Options.at(Name);
    Out += "  --" + Name;
    if (Opt.Kind != OptionKind::Flag)
      Out += "=<value> (default: " + Opt.Default + ")";
    Out += "\n      " + Opt.Help + "\n";
  }
  return Out;
}
