// ShardedFleet: many primary-component groups over one shared simulator.
//
// The paper maintains one consistent primary component per group; a
// deployment (ROADMAP north star, open item 1) runs hundreds of such
// groups — one per key range — over a shared fleet of machines, each
// machine participating in many groups at once. This class is that
// composition root:
//
//   * one sim::Simulator carries every group's traffic and one
//     MembershipOracle serves them all — the oracle announces views per
//     changed component, and fleet faults are always translated to
//     per-group component lists, so a component never spans groups and
//     every view a protocol node sees is drawn from its own group;
//   * each group is an independent protocol instance set (one
//     ProtocolNode per replica, its own DvConfig core and its own
//     ConsistencyChecker) — the consistency guarantee is per group, the
//     simulation substrate is shared;
//   * a *machine* hosts one replica of every group placed on it; fleet
//     faults (partition, crash) hit machines, and therefore hit all
//     hosted groups at once — the correlated-failure regime the
//     multi-group evaluations in PAPERS.md use;
//   * replica ProcessIds are assigned densely in registration order
//     (group-major), which keeps ProcessSet bitset widths proportional
//     to the fleet size and the network's compact-slot tables exact.
//
// Reconfiguration latency: whenever a fleet fault changes a group's
// component layout, the group is marked pending; the first subsequent
// session formation in that group closes the window and records
// (formation time - fault time) as one latency sample. bench_shards
// reports the p99 of these samples across all groups and seeds.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dv/service.hpp"
#include "harness/checker.hpp"
#include "harness/events.hpp"
#include "membership/membership_oracle.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace dynvote::obs {
class FlightRecorder;
class MetricsHub;
class TimeSeriesSampler;
}  // namespace dynvote::obs

namespace dynvote::shard {

/// Version stamped into telemetry_json(); bump on any incompatible
/// change to the fleet-telemetry payload shape.
/// v2: exported histograms carry explicit "unit" metadata
/// ("ticks" | "ns" | "us" | "bytes", inferred from the _<unit> name
/// suffix) so consumers stop guessing units from names.
inline constexpr int kFleetTelemetrySchemaVersion = 2;

/// The fleet-scale telemetry layer (obs/hub, obs/timeseries,
/// obs/flight_recorder) wired through a ShardedFleet. Telemetry never
/// perturbs the simulation: enabled or not, the event schedule and every
/// protocol decision are identical (bench_shards asserts digest equality
/// between modes and measures the overhead against a 5% budget).
struct FleetTelemetryOptions {
  bool enabled = true;
  /// Sim-time spacing of retained time-series samples (microticks).
  SimTime timeseries_tick = 2'000;
  /// Ring bound on retained time-series samples.
  std::size_t timeseries_capacity = 512;
  /// Per-group flight-recorder ring bound (protocol events only).
  std::size_t flight_recorder_capacity = 64;
  /// Reconfiguration latency (ticks) above which the group's flight
  /// recorder dumps an outlier post-mortem. 0 = no outlier capture.
  SimTime reconfig_outlier_ticks = 0;
  /// Cap on post-mortems retained per run (outliers + violations).
  std::size_t max_postmortems = 16;
};

struct ShardedFleetOptions {
  /// Number of independent primary-component groups (= shards).
  std::uint32_t num_groups = 16;
  /// Replicas per group. Must not exceed num_machines, so a group's
  /// replicas land on distinct machines.
  std::uint32_t group_size = 3;
  /// Physical hosts. Fleet faults (partitions, crashes) are expressed in
  /// machines; every group with replicas on both sides of a cut splits.
  std::uint32_t num_machines = 8;
  ProtocolKind kind = ProtocolKind::kOptimized;
  /// Min_Quorum applied to every group's DvConfig.
  std::size_t min_quorum = 1;
  sim::SimulatorOptions sim;
  MembershipOptions membership;
  /// Ring-buffer capacity of the structured trace. Bounded by default:
  /// every fleet fault records one topology event per live component,
  /// and a sharded fleet has hundreds of those.
  std::size_t trace_capacity = 4096;
  /// Debug replay audit of the persistence layer (expensive; off for
  /// fleet-scale runs, bench_persistence measures its cost).
  bool persistence_cross_check = false;
  FleetTelemetryOptions telemetry;
};

class ShardedFleet {
 public:
  /// A fleet-level partition: disjoint sets of machine indices. Must
  /// cover every machine exactly once (so the induced per-group
  /// component lists are total and deterministic).
  using MachinePartition = std::vector<std::vector<std::uint32_t>>;

  explicit ShardedFleet(ShardedFleetOptions options);
  ~ShardedFleet();  // out of line: the obs:: members are incomplete here

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] std::uint32_t num_groups() const noexcept {
    return options_.num_groups;
  }
  [[nodiscard]] std::uint32_t group_size() const noexcept {
    return options_.group_size;
  }
  [[nodiscard]] std::uint32_t num_machines() const noexcept {
    return options_.num_machines;
  }
  /// Total replica processes (= num_groups * group_size).
  [[nodiscard]] std::uint32_t fleet_n() const noexcept {
    return options_.num_groups * options_.group_size;
  }

  // -- topology of the fleet ---------------------------------------------------

  /// The replica ProcessId of member `index` of `group`.
  [[nodiscard]] ProcessId replica_id(std::uint32_t group,
                                     std::uint32_t index) const;
  /// The machine hosting member `index` of `group`.
  [[nodiscard]] std::uint32_t machine_of(std::uint32_t group,
                                         std::uint32_t index) const;
  [[nodiscard]] const ProcessSet& group_members(std::uint32_t group) const;
  /// All replicas hosted on `machine`, across groups.
  [[nodiscard]] const std::vector<ProcessId>& machine_replicas(
      std::uint32_t machine) const;

  // -- fleet faults ------------------------------------------------------------

  /// Connects every group into one component and settles: the usual way
  /// to start (never merges across groups).
  void start();

  /// Applies a machine-level cut: every group is split into one
  /// component per side that hosts at least one of its replicas.
  void partition_fleet(const MachinePartition& sides);

  /// Heals the fleet: every group back to one full component.
  void merge_fleet();

  void crash_machine(std::uint32_t machine);
  void recover_machine(std::uint32_t machine);

  /// Runs until no events remain; throws if the event budget trips.
  void settle(std::size_t max_events = sim::EventQueue::kDefaultMaxEvents);

  // -- queries -----------------------------------------------------------------

  [[nodiscard]] ProtocolNode& protocol(std::uint32_t group,
                                       std::uint32_t index);
  [[nodiscard]] PrimaryComponentService service(std::uint32_t group,
                                                std::uint32_t index) {
    return PrimaryComponentService(protocol(group, index));
  }
  [[nodiscard]] ConsistencyChecker& checker(std::uint32_t group);

  /// Distinct formed sessions summed over all groups.
  [[nodiscard]] std::uint64_t total_formed_sessions() const;

  /// Groups that currently have at least one member with Is_Primary.
  [[nodiscard]] std::uint32_t groups_with_live_primary();

  /// Consistency violations across all groups, each prefixed with its
  /// group id. Empty for the consistent protocols, always.
  [[nodiscard]] std::vector<Violation> check_all_groups(
      std::size_t order_check_limit = 400) const;

  /// Reconfiguration-latency samples (virtual ticks), in the order the
  /// formations closed them. Deterministic for a fixed seed.
  [[nodiscard]] const std::vector<double>& reconfig_latencies() const noexcept {
    return reconfig_latencies_;
  }

  // -- telemetry ---------------------------------------------------------------

  /// One closed reconfiguration window, attributable to its group (the
  /// latency in reconfig_latencies() loses the group id).
  struct ReconfigSample {
    std::uint32_t group = 0;
    SimTime fault_time = 0;
    SimTime formed_time = 0;
    [[nodiscard]] SimTime latency() const noexcept {
      return formed_time - fault_time;
    }
  };

  [[nodiscard]] bool telemetry_enabled() const noexcept {
    return hub_ != nullptr;
  }
  /// The per-group metrics hub. Requires options.telemetry.enabled.
  [[nodiscard]] obs::MetricsHub& hub();
  [[nodiscard]] const obs::MetricsHub& hub() const;
  [[nodiscard]] const obs::FlightRecorder& flight_recorder() const;

  /// Reconfiguration samples with group attribution, formation order.
  [[nodiscard]] const std::vector<ReconfigSample>& reconfig_samples()
      const noexcept {
    return reconfig_samples_;
  }

  /// Runs every group's consistency check; each violating group dumps
  /// its flight-recorder ring as a post-mortem (reason = the first
  /// violation), subject to the max_postmortems cap. Returns how many
  /// post-mortems were recorded. Requires telemetry.
  std::size_t check_and_record_postmortems(std::size_t order_check_limit = 400);

  /// Post-mortems recorded so far (latency outliers and violations).
  [[nodiscard]] const std::vector<JsonValue>& postmortems() const noexcept {
    return postmortems_;
  }

  /// The full fleet-telemetry document: shape, deterministic rollup,
  /// per-group registries, top-k slowest reconfigurations, time series,
  /// post-mortems. Byte-identical across runs of the same seed and at
  /// any DYNVOTE_THREADS. Requires telemetry.
  [[nodiscard]] JsonValue telemetry_json() const;

 private:
  struct Group {
    ProcessSet members;
    std::unique_ptr<ConsistencyChecker> checker;
    /// Telemetry mode: this group's protocol events land in its own hub
    /// child registry instead of the fleet-global one.
    std::unique_ptr<MetricsObserver> metrics;
    /// Cached hub-child instruments (telemetry mode only): formation
    /// closes a window on the protocol hot path.
    obs::Histogram* reconfig_hist = nullptr;
    obs::Counter* reconfigs = nullptr;
    /// Component layout last applied for this group (what the next
    /// fault is diffed against to detect a reconfiguration).
    std::vector<ProcessSet> last_components;
    std::optional<SimTime> reconfig_pending_since;
  };

  /// Applies per-group component lists in ONE network call (so one
  /// topology change covers the whole correlated fault) and opens a
  /// reconfiguration window for every group whose layout changed.
  void apply_components(std::vector<std::vector<ProcessSet>> per_group);
  void mark_groups_on_machine_pending(std::uint32_t machine);
  /// The router subscriber: sends each protocol event to the group of
  /// its acting process (pid / group_size) — the group's checker, its
  /// metrics fold, and note_formed.
  void route(const obs::TraceEvent& event);
  void note_formed(std::uint32_t group, SimTime time);

  ShardedFleetOptions options_;
  sim::Simulator sim_;
  /// Fleet-global MetricsObserver (non-telemetry mode only; telemetry
  /// mode gives every group its own, feeding its hub child).
  std::unique_ptr<MetricsObserver> metrics_observer_;
  std::unique_ptr<obs::MetricsHub> hub_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::vector<Group> groups_;
  std::vector<std::vector<ProcessId>> machine_replicas_;
  std::vector<double> reconfig_latencies_;
  std::vector<ReconfigSample> reconfig_samples_;
  std::vector<JsonValue> postmortems_;
  std::unique_ptr<MembershipOracle> oracle_;
};

}  // namespace dynvote::shard
