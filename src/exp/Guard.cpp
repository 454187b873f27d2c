//===- exp/Guard.cpp - One timed, isolated experiment run -----------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exp/Guard.h"

#include "obs/Clock.h"
#include "obs/Counters.h"

#include <exception>

using namespace pbt;
using namespace pbt::exp;

const char *GuardedResult::statusName() const {
  switch (St) {
  case Status::Ok:
    return "ok";
  case Status::Failed:
    return "failed";
  case Status::Exception:
    return "exception";
  }
  return "unknown";
}

GuardedResult pbt::exp::runGuarded(const std::function<int()> &Fn) {
  GuardedResult Result;
  // Wall time through the vetted obs/Clock seam; DurationSeconds only
  // surfaces in artifacts excluded from byte-identity checks.
  double Start = obs::monotonicSeconds();
  try {
    Result.ExitCode = Fn();
    if (Result.ExitCode != 0)
      Result.St = GuardedResult::Status::Failed;
  } catch (const std::exception &E) {
    Result.St = GuardedResult::Status::Exception;
    Result.ExitCode = -1;
    Result.Error = E.what();
  } catch (...) {
    Result.St = GuardedResult::Status::Exception;
    Result.ExitCode = -1;
    Result.Error = "unknown exception";
  }
  if (Result.St == GuardedResult::Status::Exception)
    obs::CounterRegistry::global().add("guard.exceptions", 1);
  Result.DurationSeconds = obs::monotonicSeconds() - Start;
  return Result;
}
