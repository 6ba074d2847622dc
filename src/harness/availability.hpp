// Monte-Carlo availability harness (experiments E5-E8).
//
// Replays a materialized failure schedule against a protocol and
// measures what fraction of virtual time the system had a live primary
// component, how often sessions were rejected or blocked, and whether
// consistency held. Replaying the *same* schedule against every protocol
// gives a paired comparison, which is how the paper's availability
// claims are phrased ("more available than", not absolute numbers).
#pragma once

#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/schedule.hpp"

namespace dynvote {

struct AvailabilityResult {
  ProtocolKind kind = ProtocolKind::kBasic;
  double availability = 0;  // fraction of time with a live primary
  std::uint64_t formed_sessions = 0;
  std::uint64_t rejected_sessions = 0;
  std::uint64_t blocked_sessions = 0;  // rejections due to blocking waits
  std::uint64_t violations = 0;        // split-brain / dup-number counts
  double mean_rounds = 0;              // communication rounds per formed session
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::size_t max_ambiguous = 0;  // high-water ambiguous sessions (dv family)
};

/// Queues every event of `schedule` on the cluster's simulator at its
/// time (partitions, merges, crashes, recoveries); the events fire as
/// the run settles. `schedule` must outlive the run.
void schedule_faults(Cluster& cluster,
                     const std::vector<ScheduleEvent>& schedule);

/// Runs `kind` against `schedule`. `base` supplies n / Min_Quorum /
/// latency / membership options; its `kind` field is overridden.
[[nodiscard]] AvailabilityResult run_schedule(
    ProtocolKind kind, const std::vector<ScheduleEvent>& schedule,
    ClusterOptions base);

/// Convenience: run every given protocol against `count` schedules
/// generated from consecutive seeds, averaging the results per protocol.
/// The (kind, seed) grid runs on the sweep pool (harness/sweep.hpp) —
/// `threads` = 0 means DYNVOTE_THREADS / hardware_concurrency — and the
/// per-protocol averages are reduced in seed order, so the output is
/// identical at any thread count.
[[nodiscard]] std::vector<AvailabilityResult> compare_protocols(
    const std::vector<ProtocolKind>& kinds, const ClusterOptions& base,
    ScheduleOptions schedule_options, int count, std::size_t threads = 0);

}  // namespace dynvote
