// Unit tests: the consistency checker itself, driven with synthetic
// trace event streams (the checker must be trustworthy before its
// verdicts on protocols mean anything).
#include <gtest/gtest.h>

#include <string>

#include "harness/checker.hpp"
#include "membership/view.hpp"

namespace dynvote {
namespace {

const ProcessSet kCore = ProcessSet::range(5);

Session session(std::initializer_list<std::uint32_t> members,
                SessionNumber number) {
  return Session{ProcessSet::of(members), number};
}

obs::TraceEvent event(obs::TraceEventKind kind, SimTime time, ProcessId p) {
  obs::TraceEvent e;
  e.kind = kind;
  e.time = time;
  e.a = p;
  return e;
}

obs::TraceEvent attempt(SimTime time, ProcessId p, const Session& s) {
  obs::TraceEvent e = event(obs::TraceEventKind::kSessionAttempt, time, p);
  e.number = s.number;
  e.members = s.members;
  return e;
}

obs::TraceEvent formed(SimTime time, ProcessId p, const Session& s,
                       int rounds) {
  obs::TraceEvent e = event(obs::TraceEventKind::kSessionFormed, time, p);
  e.number = s.number;
  e.members = s.members;
  e.value = static_cast<std::uint64_t>(rounds);
  return e;
}

obs::TraceEvent lost(SimTime time, ProcessId p) {
  return event(obs::TraceEventKind::kPrimaryLost, time, p);
}

obs::TraceEvent rejected(SimTime time, ProcessId p, const View& view,
                         std::string reason) {
  obs::TraceEvent e = event(obs::TraceEventKind::kSessionAbort, time, p);
  e.number = static_cast<std::int64_t>(view.id.value());
  e.members = view.members;
  e.detail = std::move(reason);
  return e;
}

TEST(Checker, CleanExecutionHasNoViolations) {
  ConsistencyChecker checker(kCore);
  const Session s1 = session({0, 1, 2}, 1);
  for (std::uint32_t p : {0u, 1u, 2u}) {
    checker.observe(attempt(100, ProcessId(p), s1));
    checker.observe(formed(200, ProcessId(p), s1, 2));
  }
  EXPECT_TRUE(checker.check_all().empty());
  EXPECT_EQ(checker.formed_session_count(), 2u);  // F0 + s1
  EXPECT_EQ(checker.form_events(), 3u);
}

TEST(Checker, DetectsDuplicateSessionNumbers) {
  ConsistencyChecker checker(kCore);
  checker.observe(attempt(1, ProcessId(0), session({0, 1, 2}, 1)));
  checker.observe(formed(2, ProcessId(0), session({0, 1, 2}, 1), 2));
  checker.observe(attempt(1, ProcessId(3), session({2, 3, 4}, 1)));
  checker.observe(formed(2, ProcessId(3), session({2, 3, 4}, 1), 2));
  const auto violations = checker.check_basic();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, "dup-number");
}

TEST(Checker, DetectsConcurrentDisjointPrimaries) {
  ConsistencyChecker checker(kCore);
  checker.observe(formed(100, ProcessId(0), session({0, 1}, 2), 2));
  checker.observe(formed(150, ProcessId(3), session({2, 3, 4}, 3), 2));
  const auto violations = checker.check_basic();
  bool found = false;
  for (const auto& v : violations) found |= (v.kind == "split-brain");
  EXPECT_TRUE(found);
}

TEST(Checker, NoSplitBrainWhenIntervalsDoNotOverlap) {
  ConsistencyChecker checker(kCore);
  checker.observe(formed(100, ProcessId(0), session({0, 1}, 2), 2));
  checker.observe(lost(150, ProcessId(0)));
  checker.observe(formed(200, ProcessId(3), session({2, 3, 4}, 3), 2));
  for (const auto& v : checker.check_basic()) {
    EXPECT_NE(v.kind, "split-brain") << v.detail;
  }
}

TEST(Checker, NoSplitBrainWhenSessionsIntersect) {
  // Transitional overlap between intersecting primaries is normal.
  ConsistencyChecker checker(kCore);
  checker.observe(formed(100, ProcessId(0), session({0, 1, 2}, 2), 2));
  checker.observe(formed(150, ProcessId(2), session({2, 3, 4}, 3), 2));
  for (const auto& v : checker.check_basic()) {
    EXPECT_NE(v.kind, "split-brain") << v.detail;
  }
}

TEST(Checker, OrderTotalityOverParticipationChains) {
  ConsistencyChecker checker(kCore);
  // F0 -> s1 (via p0,p1,p2) -> s2 (via p2).
  const Session s1 = session({0, 1, 2}, 1);
  const Session s2 = session({2, 3, 4}, 2);
  for (std::uint32_t p : {0u, 1u, 2u}) {
    checker.observe(attempt(1, ProcessId(p), s1));
    checker.observe(formed(2, ProcessId(p), s1, 2));
  }
  checker.observe(lost(3, ProcessId(2)));
  for (std::uint32_t p : {2u, 3u, 4u}) {
    checker.observe(attempt(4, ProcessId(p), s2));
    checker.observe(formed(5, ProcessId(p), s2, 2));
  }
  EXPECT_TRUE(checker.check_order().empty());
}

TEST(Checker, DetectsIncomparableFormedSessions) {
  ConsistencyChecker checker(kCore);
  // Two formed sessions with no common participant beyond F0... both
  // connect to F0 but not to each other: ≺ is not total.
  const Session s1 = session({0, 1}, 1);
  const Session s2 = session({3, 4}, 2);
  checker.observe(attempt(1, ProcessId(0), s1));
  checker.observe(formed(2, ProcessId(0), s1, 2));
  checker.observe(attempt(3, ProcessId(3), s2));
  checker.observe(formed(4, ProcessId(3), s2, 2));
  const auto violations = checker.check_order();
  bool partial = false;
  for (const auto& v : violations) partial |= (v.kind == "order-partial");
  EXPECT_TRUE(partial);
}

TEST(Checker, AttemptedButNeverFormedSessionsDoNotEnterTheOrder) {
  ConsistencyChecker checker(kCore);
  const Session ghost = session({0, 1, 2}, 1);
  checker.observe(attempt(1, ProcessId(0), ghost));  // nobody forms it
  const Session s2 = session({0, 1, 2, 3}, 2);
  checker.observe(attempt(3, ProcessId(0), s2));
  checker.observe(formed(4, ProcessId(0), s2, 2));
  EXPECT_TRUE(checker.check_order().empty());
  EXPECT_EQ(checker.formed_session_count(), 2u);  // F0 + s2
}

TEST(Checker, PrimaryUptimeMergesIntervals) {
  ConsistencyChecker checker(kCore);
  checker.observe(formed(100, ProcessId(0), session({0, 1, 2}, 1), 2));
  checker.observe(formed(150, ProcessId(1), session({0, 1, 2}, 1), 2));
  checker.observe(lost(300, ProcessId(0)));
  checker.observe(lost(400, ProcessId(1)));
  // Union of [100,300) and [150,400) = [100,400) = 300.
  EXPECT_EQ(checker.primary_uptime(1000), 300u);
  // Horizon clamps open intervals and spans.
  EXPECT_EQ(checker.primary_uptime(200), 100u);
}

TEST(Checker, OpenIntervalExtendsToHorizon) {
  ConsistencyChecker checker(kCore);
  checker.observe(formed(100, ProcessId(0), session({0, 1, 2}, 1), 2));
  EXPECT_EQ(checker.primary_uptime(500), 400u);
}

TEST(Checker, SessionLiveAtRespectsIntervalBounds) {
  ConsistencyChecker checker(kCore);
  const Session s = session({0, 1, 2}, 1);
  checker.observe(formed(100, ProcessId(0), s, 2));
  checker.observe(lost(200, ProcessId(0)));
  EXPECT_FALSE(checker.session_live_at(s, 99));
  EXPECT_TRUE(checker.session_live_at(s, 100));
  EXPECT_TRUE(checker.session_live_at(s, 199));
  EXPECT_FALSE(checker.session_live_at(s, 200));
}

TEST(Checker, CountsRejectionsAndBlocked) {
  ConsistencyChecker checker(kCore);
  const View view{ViewId(1), ProcessSet::of({0, 1})};
  checker.observe(rejected(1, ProcessId(0), view, "no majority"));
  checker.observe(rejected(2, ProcessId(0), view, "blocked: waiting"));
  EXPECT_EQ(checker.rejected_sessions(), 2u);
  EXPECT_EQ(checker.blocked_sessions(), 1u);
}

TEST(Checker, RoundsSummaryTracksFormEvents) {
  ConsistencyChecker checker(kCore);
  checker.observe(formed(1, ProcessId(0), session({0, 1, 2}, 1), 2));
  checker.observe(formed(2, ProcessId(1), session({0, 1, 2}, 1), 4));
  EXPECT_DOUBLE_EQ(checker.rounds_per_form().mean(), 3.0);
}

TEST(Checker, LivePrimariesListsOpenIntervals) {
  ConsistencyChecker checker(kCore);
  const Session s = session({0, 1, 2}, 1);
  checker.observe(formed(1, ProcessId(0), s, 2));
  checker.observe(formed(1, ProcessId(1), s, 2));
  checker.observe(lost(5, ProcessId(1)));
  const auto live = checker.live_primaries();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].first, ProcessId(0));
  EXPECT_EQ(live[0].second, s);
}

TEST(Checker, WithoutSeedingThereIsNoF0) {
  ConsistencyChecker checker(kCore, /*seed_initial=*/false);
  EXPECT_EQ(checker.formed_session_count(), 0u);
}

}  // namespace
}  // namespace dynvote
