// Capped exponential backoff with deterministic jitter.
//
// next() returns the delay to sleep before the upcoming retry: the base
// delay doubles (by `multiplier`) per attempt up to `max_seconds`, and
// each returned value is jittered to a uniform draw from
// [base/2, base] -- the "decorrelated halved" scheme that keeps retries
// started together (the job server's failing accept(2) loop) from
// retrying in lockstep.  The jitter
// stream is a pure function of (seed, attempt index), so a given seed
// replays the exact same schedule: tests and the chaos suite stay
// deterministic.
#pragma once

#include <cstdint>

namespace qps::util {

class Backoff {
 public:
  Backoff(double initial_seconds, double max_seconds,
          std::uint64_t seed = 0, double multiplier = 2.0)
      : initial_(initial_seconds),
        max_(max_seconds),
        multiplier_(multiplier),
        seed_(seed) {}

  /// Delay before the next retry; advances the schedule.
  double next();

  /// Back to the initial delay (after a success).
  void reset() { attempt_ = 0; }

  /// Retries scheduled since construction or the last reset().
  std::uint64_t attempts() const { return attempt_; }

  /// The un-jittered current base delay (diagnostics).
  double base() const;

 private:
  double initial_;
  double max_;
  double multiplier_;
  std::uint64_t seed_;
  std::uint64_t attempt_ = 0;
};

}  // namespace qps::util
