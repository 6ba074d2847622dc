// Cross-check harness: the DES as oracle for the wall-clock runtime.
//
// The argument that makes the comparison sound: the session protocols
// wait for *all* view members in every phase, so a session's outcome
// depends only on the view and the per-phase message sets — never on
// arrival order within a phase. The DES and the pool drive the
// identical topology script through the same ViewAnnouncer (held by
// MembershipOracle in the DES and by RuntimeFleet) and run each step to
// a fixed point (settle / quiesce) with no message loss, so they install
// the same view sequence at every process and therefore form the same
// primaries with the same session numbers, memberships, and round
// counts. run_scenario() makes that equality executable: one seeded
// script, the DES and the pool at several worker counts, digest
// comparison plus per-step C1 checks.
//
// Scope: the deterministic-outcome argument covers the quiescent
// protocols (kBasic, kOptimized, and the other all-member-wait
// variants). It does NOT cover kCentralized (coordinator election's
// tie-breaks are timing-dependent across backends) — the harness
// rejects kinds outside the allow-list rather than report spurious
// divergence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dv/service.hpp"
#include "util/ids.hpp"
#include "util/process_set.hpp"

namespace dynvote::runtime {

/// One topology verb of a scenario script.
struct ScenarioStep {
  enum class Kind : std::uint8_t { kPartition, kMerge, kCrash, kRecover };
  Kind kind = Kind::kMerge;
  std::vector<ProcessSet> groups;  // kPartition
  ProcessId p;                     // kCrash / kRecover

  [[nodiscard]] std::string to_string() const;
};

/// Deterministically expands (n, seed) into `steps` valid verbs:
/// crashes only hit live processes (always leaving one), recoveries
/// only dead ones, partitions split all n ids into 2-3 groups.
[[nodiscard]] std::vector<ScenarioStep> make_scenario(std::uint32_t n,
                                                      std::uint64_t seed,
                                                      std::size_t steps);

/// One pool-backend execution of the scenario at a given worker count.
struct PoolCheck {
  std::uint32_t workers = 0;
  std::uint64_t digest = 0;
};

struct CrossCheckResult {
  std::uint64_t seed = 0;
  std::uint64_t sim_digest = 0;
  /// Pool digests, one per worker count run. Determinism demands
  /// byte-identity at ANY W, so these must all equal sim_digest.
  std::vector<PoolCheck> pool;
  /// True only when the DES and the pool at every worker count agree
  /// (summaries, not just hashes).
  bool digests_equal = false;
  /// C1 held (<= 1 distinct live primary session) at every quiescent
  /// point of every execution.
  bool c1_clean = false;
  /// The DES transcript, for diagnostics when digests diverge.
  std::string sim_summary;
  /// First divergent pool transcript (empty when all pool runs agree).
  std::string pool_divergent_summary;
};

/// Runs the seed's scenario on the DES and on the pool once per entry
/// of `pool_workers` (empty: W ∈ {1, 2, 4, n} — one shared worker up to
/// one worker per process, duplicates dropped), and compares outcomes.
/// Throws InvariantViolation for protocol kinds outside the
/// deterministic-outcome allow-list. `probes` turns wall-clock probe
/// rings on in the pool fleets — outcomes must be identical either way,
/// which is how the digest-neutrality of the probe layer is asserted
/// (probes-on digest == probes-off digest == DES digest).
[[nodiscard]] CrossCheckResult run_scenario(
    ProtocolKind kind, std::uint32_t n, std::uint64_t seed,
    std::size_t steps = 10, bool probes = false,
    std::vector<std::uint32_t> pool_workers = {});

}  // namespace dynvote::runtime
