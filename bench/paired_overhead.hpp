// Paired on/off overhead estimator shared by the benches that price an
// optional layer: bench_shards (fleet telemetry) and bench_runtime
// (wall-clock probe rings).
#pragma once

#include <algorithm>
#include <ctime>

namespace dynvote::bench {

/// Process CPU time in milliseconds, all threads. Wall clocks on shared
/// hosts jitter +/-10% on cells of a few hundred milliseconds; CPU time
/// strips the scheduler out of the measurement (parked threads accrue
/// nothing) and leaves only frequency drift, which the minimum over
/// pairs then suppresses.
inline double cpu_time_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Overhead of a layer that must not change outcomes: `run(on)` executes
/// one cell with the layer on or off and returns the cell's outcome
/// digest (any equality-comparable value). Runs one discarded warm-up
/// pair, then `reps` adjacent off/on pairs, CPU-timed. Stores
/// max(0, MIN over per-pair on/off ratios - 1) in `overhead` and returns
/// whether the last pair's digests were equal.
///
/// The estimator is the MINIMUM over per-pair ratios. Shared-runner
/// noise comes in multi-second episodes (frequency scaling, cache
/// contention) that inflate CPU time of identical work by 5-10%, which
/// no per-mode best-of-N can see through; but a real regression shifts
/// EVERY pair, while a noise episode must land on all pairs at once to
/// fake one. The cleanest pair is therefore the honest reading: a true
/// 2x cost still fails a 5% budget by an order of magnitude. Adjacent
/// pairing keeps both sides of each ratio inside the same noise epoch;
/// alternating which mode runs first cancels intra-pair drift. The
/// warm-up pair is discarded because the very first cell runs on a
/// pristine heap no later cell sees again, which biases its pair by a
/// few percent.
template <class Run>
bool measure_paired_overhead(int reps, Run&& run, double& overhead) {
  (void)run(false);
  (void)run(true);
  double best_ratio = 0;
  decltype(run(false)) digest_on{};
  decltype(run(false)) digest_off{};
  for (int rep = 0; rep < reps; ++rep) {
    const bool off_first = rep % 2 == 0;
    const double t0 = cpu_time_ms();
    const auto first = run(!off_first);
    const double t1 = cpu_time_ms();
    const auto second = run(off_first);
    const double t2 = cpu_time_ms();
    const double ms_off = off_first ? t1 - t0 : t2 - t1;
    const double ms_on = off_first ? t2 - t1 : t1 - t0;
    const double ratio = ms_off > 0 ? ms_on / ms_off : 1.0;
    if (rep == 0 || ratio < best_ratio) best_ratio = ratio;
    digest_on = off_first ? second : first;
    digest_off = off_first ? first : second;
  }
  overhead = std::max(0.0, best_ratio - 1.0);
  return digest_on == digest_off;
}

}  // namespace dynvote::bench
