// RuntimeFleet: one wall-clock system running one protocol variant.
//
// The runtime analogue of harness::Cluster: wires a PoolTransport to one
// protocol node per process, announces views through the same
// ViewAnnouncer the simulator's MembershipOracle uses (same view-id
// sequence, same changed-component rule) over the transport's live
// components, and exposes the same fault-injection verbs. Between verbs
// the fleet quiesces the transport, which makes the execution
// step-deterministic: every topology step runs to a fixed point before
// the next, exactly like Cluster::settle() — that is what lets the DES
// act as the oracle for the runtime (runtime/crosscheck.hpp).
//
// Thread-safety: all methods are controller-thread only. probe() reads
// node state on the owning workers (via run_on + quiesce), so it is
// safe while running; outcome_summary()/outcome_digest() require the
// fleet to be stopped.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dv/service.hpp"
#include "membership/view_announcer.hpp"
#include "obs/trace.hpp"
#include "runtime/pool_transport.hpp"
#include "util/ids.hpp"
#include "util/process_set.hpp"

namespace dynvote::runtime {

// Named only by perfbench/, whose sources stay fixed; they select nothing.
using RuntimeTransport = PoolTransport;
enum class RuntimeBackend : std::uint8_t { kPool };

struct FleetOptions {
  ProtocolKind kind = ProtocolKind::kOptimized;
  /// Number of core processes (ids 0..n-1). Ignored if config.core set.
  std::uint32_t n = 5;
  DvConfig config;
  RuntimeOptions runtime;
  RuntimeBackend backend = RuntimeBackend::kPool;
  /// Pool worker count; 0 = hardware_concurrency, always clamped to
  /// [1, n]. W = n gives every process its own worker thread.
  std::uint32_t workers = 0;
};

/// One process's state as observed by probe(): read on the process's
/// worker, published to the controller by the quiesce barrier.
struct ProcessProbe {
  ProcessId id;
  bool alive = false;
  bool is_primary = false;
  std::optional<Session> primary;
  std::uint64_t formed_count = 0;
};

class RuntimeFleet {
 public:
  explicit RuntimeFleet(FleetOptions options);
  ~RuntimeFleet();

  RuntimeFleet(const RuntimeFleet&) = delete;
  RuntimeFleet& operator=(const RuntimeFleet&) = delete;

  /// Spawns the worker threads, connects everyone, announces the first
  /// view, and waits for the initial sessions to settle.
  void start();

  /// Stops and joins all worker threads. Idempotent; the destructor
  /// calls it. After stop() the outcome accessors are available.
  void stop();

  // -- fault injection (each verb runs to quiescence) ---------------------
  void partition(const std::vector<ProcessSet>& groups);
  void merge();
  void crash(ProcessId p);
  void recover(ProcessId p);

  /// Snapshot of every process's protocol state, in id order.
  [[nodiscard]] std::vector<ProcessProbe> probe();

  /// Snapshot of every probe ring: one lane per worker (copied on the
  /// owning worker via run_on + quiesce) plus the controller lane
  /// (thread = obs::kControllerLane). Empty when the fleet was built
  /// without runtime.probes.
  [[nodiscard]] std::vector<obs::ThreadProbeLog> probe_logs();

  /// Distinct primary sessions among live probed processes. C1 (total
  /// order on primaries) requires <= 1 at any quiescent point.
  [[nodiscard]] static std::size_t distinct_primaries(
      const std::vector<ProcessProbe>& probes);

  /// Canonical per-process outcome transcript: every view install and
  /// session formation (id/number/members/rounds, no wall-clock times)
  /// plus the final protocol state. Two executions that made the same
  /// protocol decisions produce identical summaries — this is the string
  /// the DES cross-check compares (after stop()).
  [[nodiscard]] std::string outcome_summary();

  /// FNV-1a 64 of outcome_summary().
  [[nodiscard]] std::uint64_t outcome_digest();

  [[nodiscard]] PoolTransport& transport() noexcept { return *transport_; }
  [[nodiscard]] const std::vector<ProcessId>& processes() const noexcept {
    return transport_->processes();
  }
  [[nodiscard]] ProtocolNode& protocol(ProcessId p);
  [[nodiscard]] const DvConfig& config() const noexcept { return config_; }

 private:
  /// Runs after every topology verb: posts the views the change calls
  /// for, then waits for the fleet to settle.
  void announce_and_quiesce();

  FleetOptions options_;
  DvConfig config_;
  std::unique_ptr<PoolTransport> transport_;
  std::vector<std::unique_ptr<ProtocolNode>> nodes_;  // id order
  ViewAnnouncer announcer_;
  bool started_ = false;
};

/// FNV-1a 64-bit — tiny, deterministic, dependency-free; collisions are
/// irrelevant here (the cross-check compares summaries on mismatch).
[[nodiscard]] std::uint64_t fnv1a64(const std::string& data);

/// Appends p's line of the canonical outcome transcript to `out`: the
/// view installs and session formations p recorded in `events` (events
/// of other processes are skipped, so a shared DES sink works as well
/// as a per-process one), then `node`'s final state. Both
/// RuntimeFleet::outcome_summary and the DES side of the cross-check
/// build their transcripts from it.
void append_outcome_line(std::string& out, ProcessId p,
                         const std::deque<obs::TraceEvent>& events,
                         const ProtocolNode& node);

}  // namespace dynvote::runtime
