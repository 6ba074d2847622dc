// Cluster: one simulated system running one protocol variant.
//
// Wires together the simulator, the membership oracle, one protocol node
// per process, and the consistency checker and dv.* metrics fold, both
// subscribed to the simulation's TraceSink. Scenario tests, property
// tests, examples and benches all drive executions through this class.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "dv/service.hpp"
#include "harness/checker.hpp"
#include "harness/events.hpp"
#include "membership/membership_oracle.hpp"
#include "sim/simulator.hpp"
#include "util/ensure.hpp"

namespace dynvote {

struct ClusterOptions {
  ProtocolKind kind = ProtocolKind::kOptimized;
  /// Number of core processes (ids 0..n-1). Ignored if config.core set.
  std::uint32_t n = 5;
  DvConfig config;
  sim::SimulatorOptions sim;
  MembershipOptions membership;
  /// Uniform probability of losing any remote protocol message. NOTE:
  /// this deliberately stresses the model beyond the paper's
  /// reliable-while-connected channels; with n^2 messages per round even
  /// small rates starve every messaging protocol (see EXPERIMENTS.md).
  /// Installs the network's drop filter — mutually exclusive with using
  /// a FaultInjector on the same cluster.
  double message_loss = 0.0;

  /// Probability, per topology change and per component, that one random
  /// member "detaches before receiving the last message" of the ensuing
  /// session (paper section 1's failure mode): its copy of the closing
  /// round is lost, the session stays ambiguous at it. This is the
  /// paper-faithful way to make failures hit quorum formation itself.
  /// Also claims the network's drop-filter slot.
  double formation_miss = 0.0;

  /// Record per-message events (send/drop/deliver) in the structured
  /// trace. Off by default: availability sweeps exchange millions of
  /// messages. Protocol and topology events are always recorded.
  bool trace_messages = false;

  /// Ring-buffer capacity of the structured trace (0 = unbounded).
  std::size_t trace_capacity = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] MembershipOracle& oracle() noexcept { return *oracle_; }
  [[nodiscard]] ConsistencyChecker& checker() noexcept { return checker_; }
  [[nodiscard]] const DvConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ProcessSet& core() const noexcept { return config_.core; }

  /// Run description for exporting the structured trace
  /// (sim().trace()) via trace_to_json. ambiguity_bound is the Theorem-1
  /// limit n − Min_Quorum + 1 for the protocols that enforce it (the
  /// optimized protocol with a static participant set), 0 otherwise.
  [[nodiscard]] obs::TraceMeta trace_meta() const;

  [[nodiscard]] ProtocolNode& protocol(ProcessId p);
  [[nodiscard]] PrimaryComponentService service(ProcessId p) {
    return PrimaryComponentService(protocol(p));
  }

  /// Adds a non-core process on the fly (paper section 6: joins). The
  /// new process starts in its own component; merge it to connect.
  void add_process(ProcessId p);

  /// Connects all live processes and settles: the usual way to start.
  void start() {
    sim_.merge_all();
    settle();
  }

  // -- fault injection (thin wrappers that keep call sites readable) -----
  void partition(const std::vector<ProcessSet>& groups) {
    sim_.set_components(groups);
  }
  void merge() { sim_.merge_all(); }
  void crash(ProcessId p) { sim_.crash(p); }
  void recover(ProcessId p) { sim_.recover(p); }

  /// Runs until no events remain (all sessions settled). Throws
  /// InvariantViolation if the event budget trips with work still
  /// pending: a runaway schedule must fail loudly, not produce a
  /// silently truncated bench row.
  void settle(std::size_t max_events = sim::EventQueue::kDefaultMaxEvents) {
    sim_.run_to_quiescence(max_events);
    ensure(sim_.queue().empty(),
           "settle: event budget exhausted with events still pending "
           "(runaway schedule)");
  }

  // -- queries -----------------------------------------------------------------

  /// Processes whose Is_Primary is currently true.
  [[nodiscard]] ProcessSet primary_members();

  /// The session of the unique live primary component, if exactly one
  /// distinct session is live; nullopt when none. Multiple distinct live
  /// sessions (split brain) also return nullopt — use checker() to
  /// detect that case explicitly.
  [[nodiscard]] std::optional<Session> live_primary();

  /// All process ids ever added.
  [[nodiscard]] const std::vector<ProcessId>& all_processes() const noexcept {
    return process_ids_;
  }

 private:
  DvConfig config_;
  ClusterOptions options_;
  sim::Simulator sim_;
  ConsistencyChecker checker_;
  MetricsObserver metrics_;
  std::unique_ptr<MembershipOracle> oracle_;
  std::unique_ptr<Rng> loss_rng_;
  std::vector<ProcessId> process_ids_;

  struct MissRule {
    ProcessId victim;
    std::string type_substr;
    int remaining;
  };
  std::vector<MissRule> miss_rules_;

  void install_fault_modes();
  void on_topology_for_misses();
};

}  // namespace dynvote
