#ifndef CRACKDB_COMMON_TIMER_H_
#define CRACKDB_COMMON_TIMER_H_

#include <chrono>

namespace crackdb {

/// Wall-clock stopwatch with microsecond reporting, used by the experiment
/// harness to reproduce the paper's per-query response-time series.
class Timer {
 public:
  Timer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed microseconds since construction or the last Restart().
  double ElapsedMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - start_)
        .count();
  }

  double ElapsedMillis() const { return ElapsedMicros() / 1000.0; }
  double ElapsedSeconds() const { return ElapsedMicros() / 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace crackdb

#endif  // CRACKDB_COMMON_TIMER_H_
