// Whole-stack determinism and the built-in fault modes.
//
// Determinism is the load-bearing property of this reproduction: paired
// protocol comparisons and reproducible experiments both assume that a
// seed fully determines an execution. These tests pin that down at the
// level of the complete event trace, not just final states.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/availability.hpp"
#include "harness/cluster.hpp"
#include "harness/schedule.hpp"
#include "util/ensure.hpp"

namespace dynvote {
namespace {

std::string run_trace(ProtocolKind kind, std::uint64_t sim_seed,
                      std::uint64_t schedule_seed) {
  ScheduleOptions schedule_options;
  schedule_options.seed = schedule_seed;
  schedule_options.duration = 800'000;
  const auto schedule = generate_schedule(ProcessSet::range(5), schedule_options);

  ClusterOptions options;
  options.kind = kind;
  options.n = 5;
  options.sim.seed = sim_seed;
  Cluster cluster(options);
  schedule_faults(cluster, schedule);
  cluster.merge();
  cluster.settle();

  std::ostringstream out;
  for (const obs::TraceEvent& event : cluster.sim().trace().events()) {
    out << obs::describe(event) << "\n";
  }
  out << "msgs=" << cluster.sim().network().stats().messages_sent
      << " bytes=" << cluster.sim().network().stats().bytes_sent
      << " now=" << cluster.sim().now();
  return out.str();
}

TEST(Determinism, IdenticalSeedsProduceIdenticalTraces) {
  for (ProtocolKind kind :
       {ProtocolKind::kOptimized, ProtocolKind::kCentralized,
        ProtocolKind::kHybridJm}) {
    const std::string a = run_trace(kind, 7, 70);
    const std::string b = run_trace(kind, 7, 70);
    EXPECT_EQ(a, b) << to_string(kind);
  }
}

TEST(Determinism, DifferentSimSeedsChangeTimingsOnly) {
  // Different delivery latencies, same schedule: the trace differs, but
  // safety and final membership agree.
  const std::string a = run_trace(ProtocolKind::kOptimized, 7, 70);
  const std::string b = run_trace(ProtocolKind::kOptimized, 8, 70);
  EXPECT_NE(a, b);
}

TEST(Determinism, ScheduleSeedChangesTheFailurePattern) {
  const std::string a = run_trace(ProtocolKind::kOptimized, 7, 70);
  const std::string b = run_trace(ProtocolKind::kOptimized, 7, 71);
  EXPECT_NE(a, b);
}

// ---- the built-in cluster fault modes ---------------------------------------

TEST(FaultModes, FormationMissLeavesAmbiguousSessionsBehind) {
  ClusterOptions options;
  options.kind = ProtocolKind::kBasic;
  options.n = 5;
  options.sim.seed = 3;
  options.formation_miss = 1.0;  // every component, every change
  Cluster cluster(options);
  cluster.start();
  // Exactly one member missed the attempt round: 4 primaries, 1 outsider
  // holding the session ambiguous.
  EXPECT_EQ(cluster.primary_members().size(), 4u);
  EXPECT_EQ(cluster.checker().check_all().size(), 0u);
}

TEST(FaultModes, MessageLossModeDropsRoughlyTheConfiguredFraction) {
  ClusterOptions options;
  options.kind = ProtocolKind::kBasic;
  options.n = 5;
  options.sim.seed = 4;
  options.message_loss = 0.25;
  Cluster cluster(options);
  cluster.start();
  for (int i = 0; i < 30; ++i) {
    cluster.oracle().inject_view(ProcessSet::range(5));
    cluster.settle();
  }
  const auto& stats = cluster.sim().network().stats();
  const double remote =
      static_cast<double>(stats.messages_sent - stats.messages_loopback);
  const double dropped = static_cast<double>(stats.messages_dropped);
  ASSERT_GT(remote, 100.0);
  EXPECT_NEAR(dropped / remote, 0.25, 0.08);
  EXPECT_TRUE(cluster.checker().check_basic().empty());
}

TEST(FaultModes, BothModesTogetherAreRejected) {
  ClusterOptions options;
  options.message_loss = 0.1;
  options.formation_miss = 0.1;
  EXPECT_THROW(Cluster cluster(options), InvariantViolation);
}

TEST(FaultModes, PairedSchedulesAreIdenticalAcrossProtocols) {
  // The availability harness's core promise: the schedule applied to one
  // protocol is byte-identical to the schedule applied to another.
  ScheduleOptions options;
  options.seed = 99;
  const auto a = generate_schedule(ProcessSet::range(7), options);
  const auto b = generate_schedule(ProcessSet::range(7), options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].to_string(), b[i].to_string());
  }
}

TEST(FaultModes, AvailabilityResultsAreReproducible) {
  ClusterOptions base;
  base.n = 5;
  ScheduleOptions schedule;
  schedule.duration = 600'000;
  schedule.seed = 17;
  const auto events = generate_schedule(ProcessSet::range(5), schedule);
  const auto r1 = run_schedule(ProtocolKind::kOptimized, events, base);
  const auto r2 = run_schedule(ProtocolKind::kOptimized, events, base);
  EXPECT_DOUBLE_EQ(r1.availability, r2.availability);
  EXPECT_EQ(r1.formed_sessions, r2.formed_sessions);
  EXPECT_EQ(r1.messages_sent, r2.messages_sent);
  EXPECT_EQ(r1.bytes_sent, r2.bytes_sent);
}

}  // namespace
}  // namespace dynvote
