//===- support/FaultInjection.cpp - Seeded filesystem fault seam ----------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/Env.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include <unistd.h>

using namespace pbt;

namespace {

double parseProbability(const std::string &Key, const std::string &Value) {
  auto Malformed = [&] {
    return std::invalid_argument("PBT_FAULTS: " + Key +
                                 " wants a probability in [0,1], got '" +
                                 Value + "'");
  };
  // strtod skips leading whitespace; a spec value is the number alone.
  if (Value.empty() || std::isspace(static_cast<unsigned char>(Value[0])))
    throw Malformed();
  char *End = nullptr;
  double P = std::strtod(Value.c_str(), &End);
  if (End == Value.c_str() || *End != '\0')
    throw Malformed();
  // NaN fails every comparison, so a range test alone would let it
  // through as a silently disarmed fault.
  if (std::isnan(P))
    throw std::invalid_argument("PBT_FAULTS: " + Key +
                                " is not a number: '" + Value + "'");
  if (!(P >= 0 && P <= 1))
    throw Malformed();
  return P;
}

/// Parses \p Value as a decimal integer in [\p Min, \p Max]. Digits
/// only: strtoull would also take leading whitespace and a sign, and
/// wraps "-1" to its maximum.
uint64_t parseInteger(const std::string &What, const std::string &Value,
                      uint64_t Min, uint64_t Max) {
  if (Value.empty() ||
      !std::all_of(Value.begin(), Value.end(), [](char C) {
        return std::isdigit(static_cast<unsigned char>(C)) != 0;
      }))
    throw std::invalid_argument("PBT_FAULTS: " + What +
                                " wants decimal digits, got '" + Value + "'");
  auto OutOfRange = [&] {
    return std::invalid_argument("PBT_FAULTS: " + What + " '" + Value +
                                 "' out of range [" + std::to_string(Min) +
                                 ", " + std::to_string(Max) + "]");
  };
  uint64_t N = 0;
  for (char C : Value) {
    auto Digit = static_cast<uint64_t>(C - '0');
    if (N > (Max - Digit) / 10)
      throw OutOfRange();
    N = N * 10 + Digit;
  }
  if (N < Min)
    throw OutOfRange();
  return N;
}

} // namespace

FaultInjection &FaultInjection::instance() {
  static FaultInjection *FI = [] {
    auto *I = new FaultInjection();
    if (const char *Spec = envString("PBT_FAULTS"))
      if (*Spec) {
        // The first call can come from anywhere (a store op deep in a
        // gc pass, a test fixture) with no catch in sight; a typo'd
        // env var must be a clean diagnostic, never std::terminate
        // from a throwing static initializer.
        try {
          I->configure(parse(Spec));
        } catch (const std::invalid_argument &E) {
          std::fprintf(stderr, "%s\n", E.what());
          std::exit(2);
        }
      }
    return I;
  }();
  return *FI;
}

FaultConfig FaultInjection::parse(const std::string &Spec) {
  FaultConfig C;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Item = Spec.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Item.empty())
      continue;
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos)
      throw std::invalid_argument("PBT_FAULTS: expected key=value, got '" +
                                  Item + "'");
    std::string Key = Item.substr(0, Eq);
    std::string Value = Item.substr(Eq + 1);
    if (Key == "seed") {
      C.Seed = parseInteger("seed", Value, 0, UINT64_MAX);
    } else if (Key == "eio") {
      C.EioP = parseProbability(Key, Value);
    } else if (Key == "short_write") {
      C.ShortWriteP = parseProbability(Key, Value);
    } else if (Key == "torn_rename") {
      C.TornRenameP = parseProbability(Key, Value);
    } else if (Key == "vanish") {
      C.VanishP = parseProbability(Key, Value);
    } else if (Key == "crash_at") {
      size_t Colon = Value.find(':');
      C.CrashPoint = Value.substr(0, Colon);
      C.CrashAtHit = 1;
      if (Colon != std::string::npos)
        C.CrashAtHit = static_cast<uint32_t>(parseInteger(
            "crash_at hit", Value.substr(Colon + 1), 1, UINT32_MAX));
      if (C.CrashPoint.empty())
        throw std::invalid_argument("PBT_FAULTS: crash_at wants a point name");
    } else {
      throw std::invalid_argument("PBT_FAULTS: unknown key '" + Key + "'");
    }
  }
  return C;
}

void FaultInjection::configure(const FaultConfig &C) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Cfg = C;
  Stream = Rng(C.Seed);
  Decisions = 0;
  CrashHits = 0;
  Armed.store(Cfg.enabled(), std::memory_order_relaxed);
}

FaultConfig FaultInjection::config() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Cfg;
}

bool FaultInjection::roll(double P) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Decisions;
  if (P <= 0)
    return false;
  // 53-bit uniform in [0,1) from the seeded stream.
  double U = static_cast<double>(Stream.next() >> 11) * 0x1.0p-53;
  return U < P;
}

bool FaultInjection::failOp(const char *) {
  if (!armed())
    return false;
  return roll(config().EioP);
}

bool FaultInjection::truncateWrite(const char *) {
  if (!armed())
    return false;
  return roll(config().ShortWriteP);
}

bool FaultInjection::tornRename(const char *) {
  if (!armed())
    return false;
  return roll(config().TornRenameP);
}

bool FaultInjection::maybeVanish(const char *, const std::string &Path) {
  if (!armed())
    return false;
  if (!roll(config().VanishP))
    return false;
  return std::remove(Path.c_str()) == 0;
}

void FaultInjection::crashPoint(const char *Point) {
  if (!armed())
    return;
  bool Crash = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Decisions;
    if (!Cfg.CrashPoint.empty() && Cfg.CrashPoint == Point)
      Crash = ++CrashHits == Cfg.CrashAtHit;
  }
  if (Crash) {
    // The kill -9 exit status: die without flushing buffers, running
    // atexit handlers, or unwinding — the closest in-process model of
    // a hard crash.
    std::fprintf(stderr, "FaultInjection: crashing at '%s'\n", Point);
    ::_exit(137);
  }
}

uint64_t FaultInjection::decisions() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Decisions;
}
