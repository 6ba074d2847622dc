// Shared pieces of the benchmark program: clocks, quantiles, the
// result report, the protocol-event recorder, and the per-layer timings
// that run on protocol states captured from a traced run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dv/observer.hpp"
#include "dv/protocol_node.hpp"
#include "dv/state.hpp"
#include "util/process_set.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace dynvote;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// The seed used in development and by the pinned reference runs.
inline constexpr std::uint64_t kDefaultSeed = 1;

[[nodiscard]] std::uint64_t steady_ns();
/// CPU time of the whole process (every thread), milliseconds.
[[nodiscard]] double cpu_ms();
/// Peak resident set (VmHWM), megabytes.
[[nodiscard]] double peak_rss_mb();

/// Quantile of the raw samples (Summary::percentile); 0 when empty.
[[nodiscard]] inline double quantile(const std::vector<double>& samples,
                                     double q) {
  if (samples.empty()) return 0;
  Summary summary;
  summary.add_all(samples);
  return summary.percentile(q);
}
[[nodiscard]] inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

/// How many of `n` sorted samples lie beyond their q-quantile, which
/// Summary::percentile interpolates at rank q * (n - 1).
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 -
         static_cast<std::size_t>(q * static_cast<double>(n - 1));
}
/// A timed loop runs on past its time until this many latency samples
/// lie beyond the p90 it reports.
inline constexpr std::size_t kMinTailSamples = 10;
/// ... but for at most this many times its time; then the run fails.
inline constexpr std::uint64_t kMaxStretch = 4;

/// num / den, or 0 when den is not positive.
[[nodiscard]] inline double per(double num, double den) {
  return den > 0 ? num / den : 0;
}

/// FNV-1a fold of one 64-bit word.
[[nodiscard]] std::uint64_t fnv_fold(std::uint64_t hash, std::uint64_t word);
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/// The metrics of one run plus its verdict. print() writes one line per
/// metric, then the result object as the last line of stdout.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  /// Records a correctness failure (printed to stderr).
  void fail(const std::string& why);
  void print() const;

  [[nodiscard]] bool correct() const noexcept { return correct_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Entry {
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::map<std::string, Entry> metrics_;
  bool correct_ = true;
};

/// What one process did, as seen by its observer. Slots are written
/// only from the process's own execution context; the controller reads
/// them after a quiesce/settle.
struct ProcessLog {
  std::uint64_t view_ns = 0;     // latest view install
  std::uint64_t attempt_ns = 0;  // latest attempt
  std::uint64_t formed_ns = 0;   // latest formation
  SimTime formed_time = 0;       // latest formation, backend time
  std::uint64_t views = 0;
  std::uint64_t attempts = 0;
  std::uint64_t rejections = 0;
  /// Formations of sessions this process leads (is the smallest member
  /// of): summed over processes, each formed session counts once.
  std::uint64_t led = 0;
  /// Fold of every view install and formation, in the order
  /// RuntimeFleet::outcome_summary lists them.
  std::uint64_t transcript = kFnvBasis;
  bool primary = false;
  Session session;  // latest formed session
  ProcessSet last_view;
};

/// Observer that timestamps every protocol event of every process. It
/// replaces the node's observer, so it is attached only to fleets whose
/// checks do not rely on one (the runtime fleet and the DES oracle).
class Recorder final : public ProtocolObserver {
 public:
  /// Process ids must be dense in [0, n). `clock` stamps the events.
  Recorder(std::size_t n, std::function<std::uint64_t()> clock);

  void on_view_installed(SimTime time, ProcessId p, const View& view) override;
  void on_attempt(SimTime time, ProcessId p, const Session& session) override;
  void on_formed(SimTime time, ProcessId p, const Session& session,
                 int rounds) override;
  void on_primary_lost(SimTime time, ProcessId p) override;
  void on_session_rejected(SimTime time, ProcessId p, const View& view,
                           const std::string& reason) override;

  std::vector<ProcessLog> logs;

 private:
  std::function<std::uint64_t()> clock_;
};

/// Per-layer costs of the dv state, codec, WAL and quorum layers, timed
/// by calling their public functions on states captured from a run.
struct StateLayers {
  double state_bytes = 0;          // mean encoded ProtocolState
  double last_formed_entries = 0;  // mean Last_Formed map size
  double encode_us = 0;            // medians over the sampled states
  double decode_us = 0;
  double checkpoint_us = 0;
  double recover_us = 0;
  double audit_us = 0;
  double sub_quorum_ns = 0;
};

/// One captured process: its final state, its core group and the
/// members of the last view it installed.
struct CapturedState {
  ProcessId self;
  ProtocolState state;
  ProcessSet core;
  ProcessSet view;
};

/// Times the layer calls on up to `max_states` evenly spaced states.
[[nodiscard]] StateLayers time_state_layers(
    const std::vector<CapturedState>& states, std::size_t max_states);

/// Reads the final protocol state of a node (basic/optimized protocols).
[[nodiscard]] const ProtocolState& state_of(ProtocolNode& node);

/// The workloads; each fills `report` with the end-to-end metrics, or
/// with the per-layer metrics when args.trace is set.
void run_pool_workload(const Args& args, Report& report);
void run_des_workload(const Args& args, Report& report);

}  // namespace perfbench
