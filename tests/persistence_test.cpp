// Unit + property tests for the delta-WAL persistence layer (dv/wal.hpp):
// delta codecs and replay equivalence, crash recovery after every commit
// (including mid-compaction), the replay-equals-snapshot cross-check,
// legacy snapshot compatibility, and per-step stable-write counts of the
// protocols.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "dv/basic_protocol.hpp"
#include "dv/state.hpp"
#include "dv/wal.hpp"
#include "harness/availability.hpp"
#include "harness/cluster.hpp"
#include "harness/schedule.hpp"
#include "sim/stable_storage.hpp"
#include "util/ensure.hpp"

namespace dynvote {
namespace {

const ProcessId kSelf{0};

ProtocolState sample_state() {
  return ProtocolState::initial(ProcessSet::of({0, 1, 2, 3, 4}), kSelf);
}

std::vector<StateDelta> sample_deltas() {
  ParticipantTracker tracker =
      ParticipantTracker::initial(ProcessSet::of({0, 1, 2, 5}), kSelf);
  return {
      StateDelta::session_number(41),
      StateDelta::attempt(Session{ProcessSet::of({0, 1, 2}), 7}, 0),
      StateDelta::attempt(Session{ProcessSet::of({0, 1}), 9}, 2),
      StateDelta::form(Session{ProcessSet::of({0, 1, 2}), 8}),
      StateDelta::adopt(Session{ProcessSet::of({0, 2}), 10}),
      StateDelta::learned(7, ProcessId{2}, FormedKnowledge::kFormed),
      StateDelta::learned(9, ProcessId{1}, FormedKnowledge::kNotFormed),
      StateDelta::erase_ambiguous({7, 9}),
      StateDelta::merge_participants(tracker),
  };
}

TEST(StateDelta, EncodeDecodeRoundTripsEveryKind) {
  for (const StateDelta& delta : sample_deltas()) {
    Encoder enc;
    delta.encode(enc);
    Decoder dec(enc.bytes());
    const StateDelta back = StateDelta::decode(dec);
    EXPECT_TRUE(dec.exhausted());
    EXPECT_EQ(back, delta);
  }
}

TEST(StateDelta, DecodeRejectsUnknownKind) {
  Encoder enc;
  enc.put_u8(0xEE);
  Decoder dec(enc.bytes());
  EXPECT_THROW(StateDelta::decode(dec), CodecError);
}

TEST(StateDelta, ApplyMirrorsTheStateMutators) {
  // Drive a state through every mutator while mirroring each mutation
  // with its delta on a replica; the trajectories must stay identical.
  ProtocolState live = sample_state();
  ProtocolState replica = live;
  auto mirror = [&](const StateDelta& delta) {
    delta.apply(replica, kSelf);
    ASSERT_EQ(replica, live);
  };

  const Session s1{ProcessSet::of({0, 1, 2}), 1};
  live.session_number = s1.number;
  live.record_attempt(s1, kSelf);
  mirror(StateDelta::attempt(s1, 0));

  const Session s2{ProcessSet::of({0, 1}), 2};
  live.session_number = s2.number;
  live.record_attempt(s2, kSelf);
  mirror(StateDelta::attempt(s2, 0));

  live.find_ambiguous(1)->set_knowledge(ProcessId{1}, FormedKnowledge::kFormed);
  mirror(StateDelta::learned(1, ProcessId{1}, FormedKnowledge::kFormed));

  live.adopt_formed(Session{ProcessSet::of({0, 1, 2}), 1});
  mirror(StateDelta::adopt(Session{ProcessSet::of({0, 1, 2}), 1}));

  const Session s3{ProcessSet::of({0, 3}), 3};
  live.session_number = s3.number;
  live.record_attempt(s3, kSelf);
  mirror(StateDelta::attempt(s3, 0));

  std::erase_if(live.ambiguous, [](const AmbiguousSession& a) {
    return a.session.number == 3;
  });
  mirror(StateDelta::erase_ambiguous({3}));

  const Session s4{ProcessSet::of({0, 1, 2, 3, 4}), 4};
  live.session_number = s4.number;
  live.apply_form(s4);
  mirror(StateDelta::form(s4));
}

TEST(StateDelta, AttemptReplaysTheUnsoundTruncation) {
  // A writer configured with ambiguous_record_limit truncates after
  // recording; the delta must reproduce exactly that (the
  // LastAttemptOnly baseline's persistence depends on it).
  ProtocolState live = sample_state();
  ProtocolState replica = live;
  for (SessionNumber n = 1; n <= 4; ++n) {
    const Session s{ProcessSet::of({0, static_cast<std::uint32_t>(n)}), n};
    live.session_number = n;
    live.record_attempt(s, kSelf);
    if (live.ambiguous.size() > 1) {
      live.ambiguous.erase(live.ambiguous.begin(), live.ambiguous.end() - 1);
    }
    StateDelta::attempt(s, 1).apply(replica, kSelf);
    ASSERT_EQ(replica, live);
  }
  EXPECT_EQ(live.ambiguous.size(), 1u);
}

TEST(Checkpoint, RoundTripsAndReadsLegacySnapshots) {
  ProtocolState state = sample_state();
  state.session_number = 12;
  state.record_attempt(Session{ProcessSet::of({0, 1, 2}), 12}, kSelf);

  Encoder enc;
  encode_checkpoint(enc, state, 77);
  const CheckpointRecord record = decode_checkpoint(enc.bytes());
  EXPECT_EQ(record.state, state);
  EXPECT_EQ(record.covers_lsn, 77u);

  // A raw ProtocolState (what snapshot mode and pre-WAL disks hold)
  // decodes through the same entry point, covering nothing.
  Encoder legacy;
  state.encode(legacy);
  const CheckpointRecord old = decode_checkpoint(legacy.bytes());
  EXPECT_EQ(old.state, state);
  EXPECT_EQ(old.covers_lsn, 0u);
}

// Options tuned so the tests cross the compaction threshold quickly.
PersistenceOptions tight_compaction() {
  PersistenceOptions options;
  options.min_compact_bytes = 96;
  options.compact_factor = 1.5;
  return options;
}

/// Recovers a fresh WalPersistence over (a copy of) `storage` and
/// returns the state it reads.
std::optional<ProtocolState> recover_from(sim::StableStorage storage,
                                          const PersistenceOptions& options) {
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, options);
  return wal.recover();
}

TEST(WalPersistence, CrashAfterEveryCommitRecoversTheExactState) {
  sim::StableStorage storage;
  const PersistenceOptions options = tight_compaction();
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, options);
  ProtocolState state = sample_state();
  wal.checkpoint(state);

  for (SessionNumber n = 1; n <= 40; ++n) {
    const Session s{ProcessSet::of({0, 1, static_cast<std::uint32_t>(n % 5)}),
                    n};
    state.session_number = n;
    state.record_attempt(s, kSelf);
    wal.stage(StateDelta::attempt(s, 0));
    if (n % 3 == 0) {
      state.find_ambiguous(n)->set_knowledge(ProcessId{1},
                                             FormedKnowledge::kNotFormed);
      wal.stage(StateDelta::learned(n, ProcessId{1},
                                    FormedKnowledge::kNotFormed));
    }
    if (n % 7 == 0) {
      state.apply_form(s);
      wal.stage(StateDelta::form(s));
    }
    wal.commit(state);

    // Crash here: a recovery over a copy of the disk must reproduce the
    // live state, whatever mix of checkpoint + log tail is on it.
    const auto recovered = recover_from(storage, options);
    ASSERT_TRUE(recovered.has_value());
    ASSERT_EQ(*recovered, state) << "after commit " << n;
  }
  // The loop must have crossed the compaction threshold along the way,
  // or the test proved nothing about checkpoint + tail recovery.
  EXPECT_GT(storage.writes(), 41u);
}

TEST(WalPersistence, MidCompactionCrashDoesNotDoubleApply) {
  sim::StableStorage storage;
  const PersistenceOptions options = tight_compaction();
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, options);
  ProtocolState state = sample_state();
  wal.checkpoint(state);

  // Snapshot the disk in the window where the fresh checkpoint is
  // written but the log records it covers are still present.
  std::optional<sim::StableStorage> disk_at_crash;
  wal.set_before_truncate_hook([&] { disk_at_crash = storage; });

  SessionNumber n = 0;
  while (!disk_at_crash.has_value()) {
    ++n;
    ASSERT_LT(n, 1000) << "compaction never triggered";
    const Session s{ProcessSet::of({0, 1}), n};
    state.session_number = n;
    state.record_attempt(s, kSelf);
    wal.stage(StateDelta::attempt(s, 0));
    wal.commit(state);
  }

  // The captured disk really is mid-compaction: covered records remain.
  EXPECT_GT(disk_at_crash->log_bytes(disk_at_crash->intern("dv.state.wal")),
            0u);
  const auto recovered = recover_from(*disk_at_crash, options);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, state);
}

TEST(WalPersistence, CrossCheckCatchesAMutationNobodyStaged) {
  sim::StableStorage storage;
  PersistenceOptions options;  // cross_check on by default
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, options);
  ProtocolState state = sample_state();
  wal.checkpoint(state);

  state.session_number = 9;  // mutated... and never staged
  EXPECT_THROW(wal.commit(state), InvariantViolation);
}

TEST(WalPersistence, EmptyCommitWritesNothing) {
  sim::StableStorage storage;
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, {});
  ProtocolState state = sample_state();
  wal.checkpoint(state);

  const std::uint64_t writes_before = storage.writes();
  wal.commit(state);  // nothing staged: the disk already covers `state`
  wal.commit(state);
  EXPECT_EQ(storage.writes(), writes_before);
  EXPECT_EQ(wal.persists(), 2u);
}

TEST(WalPersistence, EmptyDiskRecoversToNothing) {
  sim::StableStorage storage;
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, {});
  EXPECT_EQ(wal.recover(), std::nullopt);

  // destroy() wipes checkpoint and log together; recovery sees footnote
  // 4's destroyed disk, not a torn state.
  ProtocolState state = sample_state();
  wal.checkpoint(state);
  state.session_number = 3;
  state.record_attempt(Session{ProcessSet::of({0, 1}), 3}, kSelf);
  wal.stage(StateDelta::attempt(Session{ProcessSet::of({0, 1}), 3}, 0));
  wal.commit(state);
  storage.destroy();
  EXPECT_EQ(wal.recover(), std::nullopt);
}

TEST(WalPersistence, ReadsADiskWrittenInSnapshotMode) {
  // A disk written by the legacy snapshot path must be adoptable by a
  // WAL-mode recovery (rolling upgrade of the persistence format).
  sim::StableStorage storage;
  PersistenceOptions snapshot;
  snapshot.mode = PersistenceMode::kSnapshot;
  WalPersistence old(storage, nullptr, "dv.state", kSelf, snapshot);
  ProtocolState state = sample_state();
  state.session_number = 5;
  state.record_attempt(Session{ProcessSet::of({0, 1, 2}), 5}, kSelf);
  old.checkpoint(state);

  PersistenceOptions wal_options;
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, wal_options);
  auto recovered = wal.recover();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, state);

  // And the adopted state keeps evolving through the WAL from there.
  state.session_number = 6;
  state.record_attempt(Session{ProcessSet::of({0, 2}), 6}, kSelf);
  wal.stage(StateDelta::attempt(Session{ProcessSet::of({0, 2}), 6}, 0));
  wal.commit(state);
  EXPECT_EQ(*recover_from(storage, wal_options), state);
}

TEST(WalPersistence, SnapshotModeKeepsTheLegacyByteFormat) {
  // Snapshot mode is the pre-WAL write path: the stored value must be
  // exactly ProtocolState::encode, with no checkpoint framing.
  sim::StableStorage storage;
  PersistenceOptions snapshot;
  snapshot.mode = PersistenceMode::kSnapshot;
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, snapshot);
  ProtocolState state = sample_state();
  wal.commit(state);

  Encoder expected;
  state.encode(expected);
  EXPECT_EQ(storage.get("dv.state"), expected.bytes());
}

// ---- protocol-level coverage ---------------------------------------------

ClusterOptions cluster_options(ProtocolKind kind, std::uint32_t n,
                               std::uint64_t seed = 11) {
  ClusterOptions options;
  options.kind = kind;
  options.n = n;
  options.sim.seed = seed;
  return options;
}

std::uint64_t writes_of(Cluster& cluster, std::uint32_t p) {
  return cluster.sim().storage(ProcessId{p}).writes();
}

TEST(ProtocolPersistence, HappyPathStableWriteCountsPerStep) {
  // Section 4.4 demands one durable write per state-changing step and no
  // more. On the happy path (single view, one session) that is exactly:
  // the construction checkpoint, the attempt append, the form append.
  // A redundant persist or a missed elision changes these counts.
  for (const ProtocolKind kind :
       {ProtocolKind::kBasic, ProtocolKind::kOptimized,
        ProtocolKind::kCentralized, ProtocolKind::kThreePhaseRecovery}) {
    Cluster cluster(cluster_options(kind, 3));
    cluster.start();
    ASSERT_TRUE(cluster.live_primary().has_value());
    for (std::uint32_t p = 0; p < 3; ++p) {
      EXPECT_EQ(writes_of(cluster, p), 3u)
          << "protocol kind " << static_cast<int>(kind) << " process " << p;
    }
  }
}

TEST(ProtocolPersistence, ThreePhasePersistsParticipantMergeBeforePropose) {
  // Regression for a missed persist: with dynamic participants, the
  // decision step of the three-phase baseline merges the W/A sets, and
  // those must be durable before the propose round exposes them — one
  // extra stable write in the joining session (merge commit + attempt +
  // form), not two (which would mean the merge rode along with the
  // attempt, i.e. was sent before it was durable).
  ClusterOptions options =
      cluster_options(ProtocolKind::kThreePhaseRecovery, 3);
  options.config.dynamic_participants = true;
  Cluster cluster(options);
  cluster.start();
  ASSERT_TRUE(cluster.live_primary().has_value());
  const std::uint64_t before = writes_of(cluster, 0);

  cluster.add_process(ProcessId{3});
  cluster.merge();
  cluster.settle();
  ASSERT_EQ(cluster.live_primary()->members, ProcessSet::range(4));
  EXPECT_EQ(writes_of(cluster, 0) - before, 3u);
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(ProtocolPersistence, DiskLossRecoveryStartsAFreshCheckpoint) {
  Cluster cluster(cluster_options(ProtocolKind::kOptimized, 5));
  cluster.start();
  cluster.sim().crash_and_destroy_disk(ProcessId{4});
  cluster.settle();
  cluster.recover(ProcessId{4});
  cluster.merge();
  cluster.settle();
  EXPECT_TRUE(cluster.checker().check_all().empty());
  EXPECT_TRUE(cluster.live_primary().has_value());
}

class PersistenceChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PersistenceChurnProperty, WalSurvivesCrashesAndKeepsC1) {
  // Churn with crashes and recoveries, WAL persistence and the
  // replay-equals-snapshot cross-check both on (the defaults): every
  // recovery replays checkpoint + log tail, every persist is audited,
  // and C1 must hold throughout.
  ScheduleOptions schedule_options;
  schedule_options.seed = 5'000 + GetParam();
  schedule_options.duration = SimTime{400'000};
  schedule_options.mean_event_gap = 60'000;
  const auto schedule =
      generate_schedule(ProcessSet::range(8), schedule_options);

  Cluster cluster(
      cluster_options(ProtocolKind::kOptimized, 8, GetParam()));
  sim::Simulator& sim = cluster.sim();
  schedule_faults(cluster, schedule);
  cluster.merge();
  cluster.settle();
  EXPECT_TRUE(cluster.checker().check_all().empty());
  // WAL appends happened (we exercised the log path, not just
  // checkpoints).
  EXPECT_GT(sim.metrics().counter_value("dv.storage.wal_appends"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistenceChurnProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace dynvote
