//===- tests/JsonNumberFuzzTest.cpp - appendNumber against printf ---------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JsonValue::appendNumber formats with std::to_chars, which the
/// standard defines to give printf's bytes. Every trace export and every
/// golden depends on those bytes, so this suite holds it to the snprintf
/// formatter it replaced (%lld for integral magnitudes below 1e15, %.17g
/// otherwise) on over a million seeded bit patterns and on the edges:
/// subnormals, both sides of the integer cut-off, 2^53, signed zeros,
/// infinities and NaNs.
///
/// Runs under the `fuzz` label; reproduce a failure with
/// DOPE_TEST_SEED=<seed>.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "support/Json.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

using namespace dope;
using namespace dope::testing_helpers;

namespace {

/// The formatter appendNumber replaced.
std::string printfNumber(double D) {
  char Buf[40];
  if (std::isfinite(D) && D == std::floor(D) && std::abs(D) < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(D));
  else
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  return Buf;
}

std::string appended(double D) {
  std::string Out;
  JsonValue::appendNumber(Out, D);
  return Out;
}

std::vector<double> edgeValues() {
  using Limits = std::numeric_limits<double>;
  std::vector<double> Values = {
      0.0, -0.0, Limits::infinity(), -Limits::infinity(),
      Limits::quiet_NaN(), -Limits::quiet_NaN(), Limits::signaling_NaN(),
      std::bit_cast<double>(uint64_t{0x7ff0000000000001}),
      std::bit_cast<double>(uint64_t{0xfff80000deadbeef}),
      Limits::denorm_min(), -Limits::denorm_min(), Limits::min(),
      -Limits::min(), Limits::max(), Limits::lowest(), Limits::epsilon(),
      0.1, 0.5, 1.0, -1.0, 1e-7, 1e21, 1e22, 1e23, 123456789012345678.0};
  // 2^53 and its neighbours, on both signs.
  for (double P : {9007199254740992.0, 4503599627370496.0})
    for (double S : {1.0, -1.0})
      Values.insert(Values.end(),
                    {S * P, std::nextafter(S * P, 0.0),
                     std::nextafter(S * P, S * Limits::infinity())});
  // Both sides of the integer cut-off at 1e15, integral and not.
  for (double S : {1.0, -1.0}) {
    const double Cut = S * 1e15;
    double Below = Cut, Above = Cut;
    for (int I = 0; I != 8; ++I) {
      Below = std::nextafter(Below, 0.0);
      Above = std::nextafter(Above, S * Limits::infinity());
      Values.insert(Values.end(), {Below, Above});
    }
    Values.insert(Values.end(),
                  {Cut, Cut - S, Cut + S, Cut - S * 0.5, Cut + S * 0.5});
  }
  // Subnormals: every exponent-zero pattern shape, both signs.
  for (int Shift = 0; Shift != 52; ++Shift)
    for (uint64_t Sign : {uint64_t{0}, uint64_t{1} << 63}) {
      Values.push_back(std::bit_cast<double>(Sign | (uint64_t{1} << Shift)));
      Values.push_back(
          std::bit_cast<double>(Sign | ((uint64_t{1} << (Shift + 1)) - 1)));
    }
  return Values;
}

} // namespace

TEST(JsonNumberFuzz, AppendNumberMatchesPrintfOnEdges) {
  for (double D : edgeValues())
    EXPECT_EQ(appended(D), printfNumber(D))
        << "bits 0x" << std::hex << std::bit_cast<uint64_t>(D);
}

TEST(JsonNumberFuzz, AppendNumberMatchesPrintfOnSeededBitPatterns) {
  Rng Rand(loggedSeed(20261019));
  constexpr unsigned Samples = 1u << 20;
  unsigned Failures = 0;
  for (unsigned I = 0; I != Samples && Failures < 10; ++I) {
    const uint64_t Bits = Rand.next();
    double D = 0.0;
    switch (I % 4) {
    case 0: // Any bit pattern: mostly %.17g, with NaN payloads.
      D = std::bit_cast<double>(Bits);
      break;
    case 1: // Integers on both sides of the cut-off, up to 2^63.
      D = static_cast<double>(static_cast<int64_t>(Bits) >> (Bits % 64));
      break;
    case 2: // Short decimals, as times and rates look.
      D = std::round(Rand.uniform(-1e6, 1e6) * 1e3) / 1e3;
      break;
    default: // Near 1e15, integral or not.
      D = (Bits & 1 ? 1e15 : -1e15) + Rand.uniform(-64.0, 64.0);
      if (Bits & 2)
        D = std::floor(D);
      break;
    }
    const std::string Got = appended(D), Want = printfNumber(D);
    if (Got != Want) {
      ++Failures;
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<uint64_t>(D)
                    << ": '" << Got << "' vs printf '" << Want << "'";
    }
  }
}
