// Unit/integration tests: schedule generation, paired availability runs,
// metrics collection, trace recording, fault-injector mechanics.
#include <gtest/gtest.h>

#include "harness/availability.hpp"
#include "harness/cluster.hpp"
#include "harness/metrics.hpp"
#include "harness/scenario.hpp"
#include "harness/schedule.hpp"

namespace dynvote {
namespace {

TEST(Schedule, DeterministicForASeed) {
  ScheduleOptions options;
  options.seed = 9;
  const auto a = generate_schedule(ProcessSet::range(5), options);
  const auto b = generate_schedule(ProcessSet::range(5), options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].to_string(), b[i].to_string());
  }
  EXPECT_FALSE(a.empty());
}

TEST(Schedule, DifferentSeedsDiffer) {
  ScheduleOptions options;
  options.seed = 1;
  const auto a = generate_schedule(ProcessSet::range(5), options);
  options.seed = 2;
  const auto b = generate_schedule(ProcessSet::range(5), options);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].to_string() != b[i].to_string();
  }
  EXPECT_TRUE(differs);
}

TEST(Schedule, EventsAreOrderedAndWithinDuration) {
  ScheduleOptions options;
  options.duration = 500'000;
  const auto schedule = generate_schedule(ProcessSet::range(6), options);
  SimTime last = 0;
  for (const auto& event : schedule) {
    EXPECT_GE(event.time, last);
    EXPECT_LT(event.time, options.duration);
    last = event.time;
  }
}

TEST(Schedule, PartitionGroupsAreDisjointNonEmpty) {
  ScheduleOptions options;
  options.seed = 17;
  const auto schedule = generate_schedule(ProcessSet::range(7), options);
  for (const auto& event : schedule) {
    if (event.kind != ScheduleEvent::Kind::kPartition) continue;
    ASSERT_EQ(event.groups.size(), 2u);
    EXPECT_FALSE(event.groups[0].empty());
    EXPECT_FALSE(event.groups[1].empty());
    EXPECT_FALSE(event.groups[0].intersects(event.groups[1]));
  }
}

TEST(Schedule, ReplayIsLegalOnTheSimulator) {
  // The strongest structural test: every generated event applies cleanly
  // (set_components validates disjointness; crash/recover validate
  // liveness transitions).
  ScheduleOptions options;
  options.seed = 23;
  options.duration = 1'000'000;
  const auto schedule = generate_schedule(ProcessSet::range(6), options);
  ClusterOptions base;
  base.n = 6;
  const auto result = run_schedule(ProtocolKind::kOptimized, schedule, base);
  EXPECT_GT(result.formed_sessions, 0u);
  EXPECT_EQ(result.violations, 0u);
}

TEST(Availability, PairedComparisonOrdersProtocolsAsThePaperClaims) {
  ClusterOptions base;
  base.n = 5;
  ScheduleOptions schedule;
  schedule.duration = 1'500'000;
  schedule.seed = 100;
  const auto results = compare_protocols(
      {ProtocolKind::kOptimized, ProtocolKind::kStaticMajority,
       ProtocolKind::kBlockingDynamic},
      base, schedule, 3);
  ASSERT_EQ(results.size(), 3u);
  const double ours = results[0].availability;
  const double stat = results[1].availability;
  const double blocking = results[2].availability;
  // Dynamic voting beats static majority; non-blocking beats blocking.
  EXPECT_GE(ours, stat);
  EXPECT_GE(ours, blocking);
  EXPECT_EQ(results[0].violations, 0u);
  EXPECT_EQ(results[2].violations, 0u);
}

TEST(Availability, ConsistentProtocolsNeverViolateOnRandomSchedules) {
  ClusterOptions base;
  base.n = 5;
  ScheduleOptions schedule;
  schedule.duration = 800'000;
  for (std::uint64_t seed = 200; seed < 205; ++seed) {
    schedule.seed = seed;
    const auto events = generate_schedule(ProcessSet::range(5), schedule);
    for (ProtocolKind kind :
         {ProtocolKind::kBasic, ProtocolKind::kOptimized,
          ProtocolKind::kBlockingDynamic, ProtocolKind::kHybridJm}) {
      const auto result = run_schedule(kind, events, base);
      EXPECT_EQ(result.violations, 0u)
          << to_string(kind) << " seed " << seed;
    }
  }
}

TEST(Metrics, CollectsTrafficAndStorage) {
  ClusterOptions options;
  options.kind = ProtocolKind::kBasic;
  options.n = 5;
  Cluster cluster(options);
  cluster.start();
  const RunMetrics metrics = RunMetrics::collect(cluster);
  EXPECT_GT(metrics.messages_sent, 0u);
  EXPECT_GT(metrics.bytes_sent, 0u);
  EXPECT_GT(metrics.storage_writes, 0u);
  EXPECT_EQ(metrics.formed_sessions, 2u);  // F0 + the first real session
  EXPECT_DOUBLE_EQ(metrics.mean_rounds, 2.0);
  EXPECT_GT(metrics.messages_per_formed(), 0.0);
  EXPECT_FALSE(metrics.to_string().empty());
}

TEST(FaultInjector, CountsAndExpiresRules) {
  ClusterOptions options;
  options.n = 3;
  Cluster cluster(options);
  FaultInjector faults(cluster.sim().network());
  const int rule = faults.drop_to(ProcessId(0), "dv.info", 1);
  cluster.start();
  // Only ONE info message to p0 was dropped; the session still finishes
  // after the membership oracle's next view? No — within one view the
  // message is simply lost and the session hangs. What matters here:
  // exactly one drop happened.
  EXPECT_EQ(faults.dropped(rule), 1u);
  EXPECT_EQ(faults.total_dropped(), 1u);
  faults.remove(rule);
  EXPECT_EQ(faults.dropped(rule), 0u);  // unknown rule reports zero
}

TEST(FaultInjector, LinkRuleMatchesSenderToo) {
  ClusterOptions options;
  options.n = 3;
  Cluster cluster(options);
  FaultInjector faults(cluster.sim().network());
  faults.drop_link(ProcessId(1), ProcessId(0), "dv.info");
  cluster.start();
  // p0 misses only p1's info: the first session cannot complete at p0,
  // but p1->p2 and p2->p0 traffic flows.
  EXPECT_FALSE(cluster.protocol(ProcessId(0)).is_primary());
  EXPECT_GE(faults.total_dropped(), 1u);
}

TEST(Trace, RecordsProtocolNarrative) {
  ClusterOptions options;
  options.n = 3;
  Cluster cluster(options);
  cluster.start();
  const auto& events = cluster.sim().trace().events();
  ASSERT_FALSE(events.empty());
  bool saw_form = false;
  for (const obs::TraceEvent& event : events) {
    const std::string line = obs::describe(event);
    EXPECT_FALSE(line.empty());
    if (event.kind == obs::TraceEventKind::kSessionFormed) {
      saw_form = true;
      EXPECT_NE(line.find("formed p" + std::to_string(event.a.value()) +
                          " session " + std::to_string(event.number)),
                std::string::npos)
          << line;
      EXPECT_NE(line.find("after " + std::to_string(event.value) + " rounds"),
                std::string::npos)
          << line;
    }
  }
  EXPECT_TRUE(saw_form);
}

TEST(Cluster, LivePrimaryNulloptWhenNoneOrAmbiguous) {
  ClusterOptions options;
  options.n = 4;
  Cluster cluster(options);
  // Before any view settles: nobody is primary.
  EXPECT_FALSE(cluster.live_primary().has_value());
}

}  // namespace
}  // namespace dynvote
