//===- tests/SpeedupFitCacheTest.cpp - Exact memo of the curve fit ---------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SpeedupFitCache must be invisible in every result: on a miss, on a hit
/// and after the capacity clear, the fit it returns equals
/// fitSpeedupCurve's bit for bit. The differential check runs over
/// tests/data/speedup-fit-corpus.txt, tables the arbiter's estimators
/// fitted in colocation-48 and ext_chaos.
///
//===----------------------------------------------------------------------===//

#include "support/SpeedupCurve.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace dope;

namespace {

using Table = std::vector<SpeedupSample>;

struct CorpusEntry {
  std::string Source;
  Table Samples;
};

std::vector<CorpusEntry> loadCorpus() {
  std::ifstream In(DOPE_TEST_DATA_DIR "/speedup-fit-corpus.txt");
  std::vector<CorpusEntry> Corpus;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    CorpusEntry E;
    size_t Count = 0;
    Fields >> E.Source >> Count;
    for (size_t I = 0; I != Count; ++I) {
      SpeedupSample P;
      std::string Rate;
      Fields >> P.Extent >> Rate;
      P.Rate = std::strtod(Rate.c_str(), nullptr);
      E.Samples.push_back(P);
    }
    EXPECT_TRUE(Fields) << "malformed corpus line: " << Line;
    Corpus.push_back(std::move(E));
  }
  return Corpus;
}

uint64_t bits(double X) { return std::bit_cast<uint64_t>(X); }

void expectIdentical(const SpeedupCurveFit &Got, const SpeedupCurveFit &Want,
                     size_t Index, const char *Phase) {
  SCOPED_TRACE(testing::Message() << Phase << ", corpus table " << Index);
  EXPECT_EQ(bits(Got.Curve.alpha()), bits(Want.Curve.alpha()));
  EXPECT_EQ(bits(Got.Curve.fixedCost()), bits(Want.Curve.fixedCost()));
  EXPECT_EQ(bits(Got.Curve.cap()), bits(Want.Curve.cap()));
  EXPECT_EQ(bits(Got.BaseRate), bits(Want.BaseRate));
  EXPECT_EQ(bits(Got.Rmse), bits(Want.Rmse));
  EXPECT_EQ(Got.SampleCount, Want.SampleCount);
}

/// A one-sample table: distinct per \p I and cheap to fit (the fallback).
Table filler(size_t I) { return {{1, 1.0 + static_cast<double>(I)}}; }

TEST(SpeedupFitCache, MatchesDirectFitOnRecordedTables) {
  const std::vector<CorpusEntry> Corpus = loadCorpus();
  // The corpus covers both sources and every sample-count regime.
  std::map<std::string, std::map<size_t, size_t>> Coverage;
  for (const CorpusEntry &E : Corpus)
    ++Coverage[E.Source][std::min<size_t>(E.Samples.size(), 4)];
  for (const char *Source : {"colocation-48", "ext_chaos"})
    for (size_t N : {2, 3, 4})
      EXPECT_GE(Coverage[Source][N], 20u) << Source << " with " << N
                                          << (N == 4 ? "+" : "")
                                          << " samples";
  ASSERT_LT(Corpus.size(), SpeedupFitCache::Capacity);

  std::vector<SpeedupCurveFit> Direct;
  for (const CorpusEntry &E : Corpus)
    Direct.push_back(fitSpeedupCurve(E.Samples));

  SpeedupFitCache Cache;
  for (size_t I = 0; I != Corpus.size(); ++I) {
    expectIdentical(Cache.fit(Corpus[I].Samples), Direct[I], I, "miss");
    EXPECT_EQ(Cache.size(), I + 1) << "corpus tables are distinct";
  }
  for (size_t I = 0; I != Corpus.size(); ++I)
    expectIdentical(Cache.fit(Corpus[I].Samples), Direct[I], I, "hit");
  EXPECT_EQ(Cache.size(), Corpus.size());

  // Fill to the bound; the next miss clears the cache before inserting,
  // so every corpus table misses again.
  const size_t Free = SpeedupFitCache::Capacity - Cache.size();
  for (size_t I = 0; I != Free; ++I)
    Cache.fit(filler(I));
  ASSERT_EQ(Cache.size(), SpeedupFitCache::Capacity);
  Cache.fit(filler(Free));
  ASSERT_EQ(Cache.size(), 1u) << "the full cache was cleared";
  for (size_t I = 0; I != Corpus.size(); ++I) {
    expectIdentical(Cache.fit(Corpus[I].Samples), Direct[I], I,
                    "after clear");
    EXPECT_EQ(Cache.size(), I + 2);
  }
}

TEST(SpeedupFitCache, NeverHoldsMoreThanCapacity) {
  SpeedupFitCache Cache;
  for (size_t I = 0; I != 3 * SpeedupFitCache::Capacity + 7; ++I) {
    Cache.fit(filler(I));
    ASSERT_LE(Cache.size(), SpeedupFitCache::Capacity) << "after " << I;
  }
  EXPECT_GE(Cache.size(), 1u);
}

TEST(SpeedupFitCache, KeysRatesBitForBit) {
  SpeedupFitCache Cache;
  const double Rate = 10.0;
  Cache.fit({{1, Rate}, {2, 18.0}});
  Cache.fit({{1, std::nextafter(Rate, 11.0)}, {2, 18.0}});
  Cache.fit({{1, Rate}, {3, 18.0}});
  Cache.fit({{1, Rate}, {2, 18.0}});
  EXPECT_EQ(Cache.size(), 3u);
}

} // namespace
