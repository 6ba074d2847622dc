// The discrete-event workload: ShardedFleet + ShardedKv on one thread.
//
//   des-shards-1024   128 groups x 8 replicas on 32 machines. Each round
//                     makes a seeded correlated machine cut (2 and 3
//                     sides in turn), writes through ShardedKv, crashes
//                     and recovers a machine every third round, then
//                     merges.
//                     Groups of 8 keep dv state tiny and there is no
//                     runtime, so the time goes to sim (event queue,
//                     network), the membership oracle, shard, obs
//                     telemetry and the consistency checker.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "bench.hpp"
#include "obs/hub.hpp"
#include "shard/sharded_fleet.hpp"
#include "shard/sharded_kv.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using shard::ShardedFleet;

constexpr std::uint32_t kGroups = 128;
constexpr std::uint32_t kReplicas = 8;
constexpr std::uint32_t kMachines = 32;
constexpr int kWritesPerRound = 64;
/// Peak RSS is read after this many rounds (see pool.cpp).
constexpr std::uint64_t kRssAfterRounds = 12;
/// Set-up is timed this many times before the timed loop and as many
/// after it, each on the next CPU (see next_cpu()). None runs inside the loop: a fresh 1024-process fleet
/// evicts the timed fleet from the caches, and in paired runs the loop
/// ran up to 18% slower with set-ups inside it.
constexpr int kSetupReps = 10;
/// The pinned reference: seed, rounds, and what that run must produce
/// (sim events executed, formed sessions, messages sent, and a fold of
/// every group's formed sessions: numbers and members).
constexpr std::uint64_t kReferenceRounds = 6;
constexpr std::uint64_t kReferenceEvents = 167'332;
constexpr std::uint64_t kReferenceFormed = 1'640;
constexpr std::uint64_t kReferenceMessages = 153'484;
constexpr std::uint64_t kReferenceSessions = 0x3cd149e4fb718f55;

/// The store is declared last: it borrows the fleet.
struct FleetRun {
  std::unique_ptr<ShardedFleet> fleet;
  std::unique_ptr<shard::ShardedKv> kv;
};

FleetRun build(std::uint64_t seed, bool telemetry, bool audit = false) {
  shard::ShardedFleetOptions options;
  options.num_groups = kGroups;
  options.group_size = kReplicas;
  options.num_machines = kMachines;
  options.kind = ProtocolKind::kOptimized;
  options.sim.seed = 91'000 + seed;
  options.telemetry.enabled = telemetry;
  options.persistence_cross_check = audit;
  FleetRun run;
  run.fleet = std::make_unique<ShardedFleet>(options);
  run.kv = std::make_unique<shard::ShardedKv>(*run.fleet);
  run.fleet->start();
  return run;
}

/// Moves the calling thread to the next CPU it may run on, round-robin.
///
/// The DES is one thread, and on a shared host one vCPU can run slower
/// than the others for minutes (another tenant on its core evicts its
/// caches). Staying on one vCPU, two runs of the same seed started
/// together differed by up to 29% in CPU per formed quorum; moving
/// between two vCPUs every round, by at most 2.5%.
void next_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  static std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

/// A seeded cut of every machine into `sides` sides.
ShardedFleet::MachinePartition random_cut(Rng& rng, std::uint32_t sides) {
  std::vector<std::uint32_t> order(kMachines);
  for (std::uint32_t m = 0; m < kMachines; ++m) order[m] = m;
  rng.shuffle(order);
  ShardedFleet::MachinePartition out(sides);
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    out[m % sides].push_back(order[m]);
  }
  return out;
}

struct Segment {
  std::uint64_t verbs = 0;
  std::uint64_t failed = 0;
  double cpu_ms = 0;
  std::uint64_t formed = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t reconfigs = 0;
  std::uint64_t persists = 0;
  std::uint64_t persist_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t views = 0;
  std::uint64_t attempts = 0;
  std::uint64_t rejections = 0;
  std::uint64_t writes = 0;
  std::uint64_t rejected_writes = 0;
  double write_ms = 0;
  double topology_ms = 0;
  double settle_cpu_ms = 0;
  std::vector<double> verb_us;  // fault call + settle, CPU
  std::vector<double> latency_ticks;
  double rss_mb = 0;
  double trace_events_per_process = 0;
  std::vector<CapturedState> states;
  bool audit_clean = true;
};

struct Totals {
  std::uint64_t views = 0;
  std::uint64_t attempts = 0;
  std::uint64_t rejections = 0;
  std::uint64_t persists = 0;
  std::uint64_t persist_bytes = 0;
  std::uint64_t checkpoints = 0;
};

/// The fleet's own protocol and WAL counters (its MetricsObserver and
/// WalPersistence instruments): per group with telemetry, else global.
Totals totals(ShardedFleet& fleet) {
  Totals t;
  auto counter = [&fleet](std::string_view name) {
    return fleet.telemetry_enabled()
               ? fleet.hub().group_counter_sum(name)
               : fleet.sim().metrics().counter(name).value();
  };
  t.views = counter("dv.views_installed");
  t.attempts = counter("dv.attempts");
  t.rejections = counter("dv.rejected");
  t.persists = counter("dv.storage.persists");
  t.persist_bytes =
      counter("dv.storage.wal_bytes") + counter("dv.storage.checkpoint_bytes");
  t.checkpoints = counter("dv.storage.checkpoints");
  return t;
}

/// One fleet driven through fault rounds, one round per step(), so two
/// fleets can alternate rounds and share the host's slow and fast spells.
class Rounds {
 public:
  Rounds(std::uint64_t seed, bool telemetry, bool audit = false)
      : run_(build(seed, telemetry, audit)), rng_(13'000 + seed) {
    ShardedFleet& fleet = *run_.fleet;
    before_ = totals(fleet);
    formed0_ = fleet.total_formed_sessions();
    events0_ = fleet.sim().queue().executed();
    messages0_ = fleet.sim().network().stats().messages_sent;
    bytes0_ = fleet.sim().network().stats().bytes_sent;
    reconfigs0_ = fleet.reconfig_latencies().size();
  }

  /// One round, on the next CPU: a cut, writes, every third round a
  /// machine crash and recovery, then the merge.
  void step() {
    next_cpu();
    ShardedFleet& fleet = *run_.fleet;
    shard::ShardedKv& kv = *run_.kv;
    const double cpu0 = cpu_ms();
    const ShardedFleet::MachinePartition cut =
        random_cut(rng_, 2 + static_cast<std::uint32_t>(round_ % 2));
    verb([&] { fleet.partition_fleet(cut); });
    std::vector<std::pair<std::string, std::string>> writes;
    for (int w = 0; w < kWritesPerRound; ++w) {
      writes.emplace_back("k" + std::to_string(next_key_++),
                          "r" + std::to_string(round_));
    }
    const std::uint64_t w0 = steady_ns();
    for (auto& [key, value] : writes) kv.write(key, std::move(value));
    seg_.write_ms += static_cast<double>(steady_ns() - w0) / 1e6;
    if (round_ % 3 == 2) {
      const auto machine =
          static_cast<std::uint32_t>(rng_.next_below(kMachines));
      verb([&] { fleet.crash_machine(machine); });
      verb([&] { fleet.recover_machine(machine); });
    }
    verb([&] { fleet.merge_fleet(); });
    // A healed fleet re-forms every group.
    if (fleet.groups_with_live_primary() != kGroups) ++seg_.failed;
    kv.sync_primaries();
    seg_.cpu_ms += cpu_ms() - cpu0;
    if (++round_ == kRssAfterRounds) seg_.rss_mb = peak_rss_mb();
  }

  /// Closes the segment: counters, audits and (when `capture`) the final
  /// protocol states.
  Segment finish(bool capture) {
    ShardedFleet& fleet = *run_.fleet;
    shard::ShardedKv& kv = *run_.kv;
    Segment seg = std::move(seg_);
    if (seg.rss_mb == 0) seg.rss_mb = peak_rss_mb();
    const Totals after = totals(fleet);
    seg.views = after.views - before_.views;
    seg.attempts = after.attempts - before_.attempts;
    seg.rejections = after.rejections - before_.rejections;
    seg.persists = after.persists - before_.persists;
    seg.persist_bytes = after.persist_bytes - before_.persist_bytes;
    seg.checkpoints = after.checkpoints - before_.checkpoints;
    seg.formed = fleet.total_formed_sessions() - formed0_;
    seg.events = fleet.sim().queue().executed() - events0_;
    seg.messages = fleet.sim().network().stats().messages_sent - messages0_;
    seg.bytes = fleet.sim().network().stats().bytes_sent - bytes0_;
    seg.reconfigs = fleet.reconfig_latencies().size() - reconfigs0_;
    seg.latency_ticks.assign(fleet.reconfig_latencies().begin() +
                                 static_cast<std::ptrdiff_t>(reconfigs0_),
                             fleet.reconfig_latencies().end());
    seg.rejected_writes = kv.rejected_writes();
    seg.writes = kv.accepted_writes() + kv.rejected_writes();
    seg.trace_events_per_process =
        static_cast<double>(fleet.sim().trace().size()) /
        static_cast<double>(fleet.fleet_n());

    const std::vector<Violation> violations = fleet.check_all_groups();
    const std::vector<app::Divergence> divergences = kv.audit();
    seg.audit_clean = violations.empty() && divergences.empty();
    if (!seg.audit_clean) {
      std::fprintf(stderr, "%zu consistency violations, %zu kv divergences\n",
                   violations.size(), divergences.size());
    }
    if (capture) {
      for (std::uint32_t g = 0; g < kGroups; ++g) {
        for (std::uint32_t i = 0; i < kReplicas; ++i) {
          // The last view a replica installed is its group's layout
          // after the final merge: the whole group.
          seg.states.push_back(CapturedState{
              fleet.replica_id(g, i), state_of(fleet.protocol(g, i)),
              fleet.group_members(g), fleet.group_members(g)});
        }
      }
    }
    return seg;
  }

  [[nodiscard]] ShardedFleet& fleet() { return *run_.fleet; }
  [[nodiscard]] std::size_t verb_samples() const {
    return seg_.verb_us.size();
  }

 private:
  /// One verb: the fault call, then settle; timed apart. The benchmark runs
  /// on one thread, so its CPU time is the verb's time without the
  /// host's steal and preemption.
  template <class Fault>
  void verb(Fault&& fault) {
    ++seg_.verbs;
    const double c0 = cpu_ms();
    fault();
    const double c1 = cpu_ms();
    run_.fleet->settle();
    const double c2 = cpu_ms();
    seg_.topology_ms += c1 - c0;
    seg_.settle_cpu_ms += c2 - c1;
    seg_.verb_us.push_back((c2 - c0) * 1e3);
  }

  FleetRun run_;
  Rng rng_;
  std::uint64_t round_ = 0;
  std::uint64_t next_key_ = 0;
  Segment seg_;
  Totals before_;
  std::uint64_t formed0_ = 0;
  std::uint64_t events0_ = 0;
  std::uint64_t messages0_ = 0;
  std::uint64_t bytes0_ = 0;
  std::size_t reconfigs0_ = 0;
};

/// The pinned reference run: same code path, fixed seed and length, and
/// the WAL replay audit on.
bool reference_matches() {
  Rounds rounds(kDefaultSeed, /*telemetry=*/true, /*audit=*/true);
  for (std::uint64_t r = 0; r < kReferenceRounds; ++r) rounds.step();
  const Segment seg = rounds.finish(/*capture=*/false);
  ShardedFleet& fleet = rounds.fleet();
  const std::uint64_t events = fleet.sim().queue().executed();
  const std::uint64_t formed = fleet.total_formed_sessions();
  const std::uint64_t messages = fleet.sim().network().stats().messages_sent;
  std::uint64_t sessions = kFnvBasis;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    for (const Session& session : fleet.checker(g).formed_sessions()) {
      sessions = fnv_fold(sessions, session.number);
      for (ProcessId p : session.members) {
        sessions = fnv_fold(sessions, p.value());
      }
    }
  }
  std::printf(
      "reference digest: events=%llu formed=%llu messages=%llu "
      "sessions=%016llx\n",
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(formed),
      static_cast<unsigned long long>(messages),
      static_cast<unsigned long long>(sessions));
  return seg.audit_clean && seg.failed == 0 && events == kReferenceEvents &&
         formed == kReferenceFormed && messages == kReferenceMessages &&
         sessions == kReferenceSessions;
}

}  // namespace

void run_des_workload(const Args& args, Report& report) {
  const auto budget = static_cast<std::uint64_t>(args.seconds * 1e9);
  Segment plain;
  Segment telemetry;
  if (!args.trace) {
    // Set-up, timed on CPU time (one thread) before and after the
    // loop, each on the next CPU; the median is the metric. The last
    // fleet set up before the loop is the timed one.
    std::vector<double> setup_s;
    auto set_up = [&] {
      next_cpu();
      const double c0 = cpu_ms();
      auto fleet = std::make_unique<Rounds>(args.seed, /*telemetry=*/true);
      setup_s.push_back((cpu_ms() - c0) / 1e3);
      return fleet;
    };
    std::unique_ptr<Rounds> rounds;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      rounds.reset();
      rounds = set_up();
    }
    // Past its time the loop runs on, up to kMaxStretch times as long,
    // until enough verb samples lie beyond the reported p90.
    const std::uint64_t t0 = steady_ns();
    while (steady_ns() - t0 < budget ||
           (samples_beyond(rounds->verb_samples(), 0.9) < kMinTailSamples &&
            steady_ns() - t0 < kMaxStretch * budget)) {
      rounds->step();
    }
    telemetry = rounds->finish(/*capture=*/false);
    rounds.reset();
    for (int rep = 0; rep < kSetupReps; ++rep) set_up();
    report.metric("setup_s", median(setup_s), "s", setup_s.size());
  } else {
    // The same rounds with telemetry off and on, alternating round by
    // round: the difference is the telemetry overhead; the per-layer
    // numbers come from the fleet with telemetry on.
    Rounds off(args.seed, /*telemetry=*/false);
    Rounds on(args.seed, /*telemetry=*/true);
    for (const std::uint64_t t0 = steady_ns(); steady_ns() - t0 < budget;) {
      off.step();
      on.step();
    }
    plain = off.finish(/*capture=*/false);
    telemetry = on.finish(/*capture=*/true);
  }

  report.attempted = plain.verbs + telemetry.verbs;
  report.failed = plain.failed + telemetry.failed;
  if (!plain.audit_clean || !telemetry.audit_clean) {
    report.fail("group audit or kv audit found inconsistencies");
    report.failed = report.attempted;
  }
  if (!reference_matches()) {
    report.fail("pinned reference digest changed");
    report.failed = report.attempted;
  }
  if (report.failed > 0) {
    report.fail(std::to_string(report.failed) + " verbs failed");
  }
  if (!args.trace &&
      samples_beyond(telemetry.verb_us.size(), 0.9) < kMinTailSamples) {
    report.fail("too few verbs for reconfig_p90_us");
  }

  const Segment& s = telemetry;
  const auto formed = static_cast<double>(s.formed);
  const auto verbs = static_cast<double>(s.verbs);
  if (!args.trace) {
    report.metric("formed_per_s", per(formed * 1e3, s.cpu_ms), "1/s");
    report.metric("cpu_ms_per_formed", per(s.cpu_ms, formed), "ms");
    report.metric("reconfig_p50_us", quantile(s.verb_us, 0.5), "us",
                  s.verb_us.size());
    report.metric("reconfig_p90_us", quantile(s.verb_us, 0.9), "us",
                  s.verb_us.size());
    report.metric("reconfig_p50_ticks", quantile(s.latency_ticks, 0.5),
                  "ticks", s.latency_ticks.size());
    report.metric("reconfig_p99_ticks", quantile(s.latency_ticks, 0.99),
                  "ticks", s.latency_ticks.size());
    report.metric("rss_mb_per_process",
                  s.rss_mb / static_cast<double>(kGroups * kReplicas), "MB");
    report.metric("msgs_per_formed",
                  per(static_cast<double>(s.messages), formed), "1");
    return;
  }

  // The wall-clock runtime does not run on this workload.
  for (const char* name :
       {"runtime.epoch_drops_per_formed", "runtime.delivered_frac",
        "runtime.wakeups_per_formed", "runtime.handoffs_per_formed",
        "runtime.batch_p50", "obs.probe_overhead_frac"}) {
    report.metric(name, 0, "1");
  }
  for (const char* name : {"runtime.queued_us", "runtime.parked_us",
                           "runtime.executing_us", "runtime.quiesce_us"}) {
    report.metric(name, 0, "us");
  }

  report.metric("membership.views_per_verb",
                per(static_cast<double>(s.views), verbs), "1");
  report.metric("membership.topology_ms_per_verb", per(s.topology_ms, verbs),
                "ms");
  // Per-process event stamps need the nodes' observer slot, which the
  // fleet's checker and reconfiguration windows occupy.
  for (const char* name :
       {"membership.verb_to_view_us", "dv.view_to_attempt_us",
        "dv.attempt_to_formed_us"}) {
    report.metric(name, 0, "us");
  }
  report.metric("dv.attempts_per_formed",
                per(static_cast<double>(s.attempts), formed), "1");
  report.metric("dv.rejected_per_verb",
                per(static_cast<double>(s.rejections), verbs), "1");

  const StateLayers layers = time_state_layers(s.states, 64);
  report.metric("dv.state_bytes_per_process", layers.state_bytes, "bytes");
  report.metric("dv.last_formed_entries_per_process",
                layers.last_formed_entries, "1");
  report.metric("codec.state_encode_us", layers.encode_us, "us");
  report.metric("codec.state_decode_us", layers.decode_us, "us");
  report.metric("wal.persists_per_formed",
                per(static_cast<double>(s.persists), formed), "1");
  report.metric("wal.bytes_per_formed",
                per(static_cast<double>(s.persist_bytes), formed), "bytes");
  report.metric("wal.checkpoints_per_formed",
                per(static_cast<double>(s.checkpoints), formed), "1");
  report.metric("wal.checkpoint_us", layers.checkpoint_us, "us");
  report.metric("wal.recover_us", layers.recover_us, "us");
  report.metric("wal.audit_us", layers.audit_us, "us");
  report.metric("quorum.sub_quorum_ns", layers.sub_quorum_ns, "ns");

  report.metric("sim.events_per_formed",
                per(static_cast<double>(s.events), formed), "1");
  report.metric("sim.bytes_per_formed",
                per(static_cast<double>(s.bytes), formed), "bytes");
  report.metric("sim.settle_ms_per_verb", per(s.settle_cpu_ms, verbs), "ms");
  report.metric("sim.ns_per_event",
                per(s.settle_cpu_ms * 1e6, static_cast<double>(s.events)),
                "ns");

  report.metric("shard.groups_reconfigured_per_verb",
                per(static_cast<double>(s.reconfigs), verbs), "1");
  report.metric("shard.kv_write_us",
                per(s.write_ms * 1e3, static_cast<double>(s.writes)), "us");
  report.metric("shard.kv_rejected_frac",
                per(static_cast<double>(s.rejected_writes),
                    static_cast<double>(s.writes)),
                "1");

  report.metric("obs.trace_events_per_process", s.trace_events_per_process,
                "1");
  const double plain_cpu =
      per(plain.cpu_ms, static_cast<double>(plain.formed));
  const double telemetry_cpu = per(s.cpu_ms, formed);
  report.metric("obs.telemetry_overhead_frac",
                per(telemetry_cpu - plain_cpu, plain_cpu), "1");
}

}  // namespace perfbench
