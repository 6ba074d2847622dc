// The two wall-clock workloads: RuntimeFleet on the pool backend.
//
//   pool-lineage-256  the primary cascades 256 -> 129 -> 65 -> 33 by
//                     majority halving, then the 33-member quorum
//                     alternates between two sets overlapping in 32
//                     members while the other 223 processes re-view in
//                     inert groups of <= 32. Dominated by dv state and
//                     message size (Last_Formed holds n entries).
//   pool-churn-16     majority/minority partition -> merge -> crash a
//                     rotating member -> recover + merge. Few, small
//                     messages: dominated by the runtime scheduler and
//                     the quiesce barrier; exercises WAL recovery.
//
// Both are closed loops: the controller issues the next verb only after
// the previous one quiesced. Each run replays its exact verb script on
// the DES (harness::Cluster) afterwards and requires identical
// per-process transcripts — the DES is the oracle.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "harness/cluster.hpp"
#include "runtime/fleet.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using runtime::RuntimeFleet;

constexpr std::uint32_t kWorkers = 2;

struct Verb {
  enum class Kind : std::uint8_t { kPartition, kMerge, kCrash, kRecover };
  Kind kind = Kind::kMerge;
  std::vector<ProcessSet> groups;  // kPartition
  ProcessId p;                     // kCrash / kRecover (recover, then merge)
  /// The component that must form the next primary at every member.
  ProcessSet expect;
};

struct Script {
  std::uint32_t n = 0;
  /// Verbs after start() that are part of set-up (the lineage cascade).
  std::vector<Verb> cascade;
  /// verb(i): the i-th verb after the cascade. The first `warmup` are
  /// set-up too; the timed loop starts at verb(warmup).
  std::function<Verb(std::uint64_t)> verb;
  std::uint64_t warmup = 0;
  /// Set-ups timed at each of the three points of an untraced run.
  int setup_reps = 1;
  std::size_t probe_capacity = 0;
  /// Peak RSS is read after this many timed verbs, so it does not depend
  /// on how many verbs the host managed (the trace rings fill with each).
  std::uint64_t rss_after_verbs = 0;
  /// The pinned reference: the default seed's script up to this many
  /// timed verbs, replayed on the DES with the WAL audit on, must fold to
  /// this digest.
  std::uint64_t reference_verbs = 0;
  std::uint64_t reference_digest = 0;
};

Script lineage_script(std::uint64_t seed) {
  constexpr std::uint32_t kN = 256;
  constexpr std::uint32_t kGroup = 32;
  constexpr std::uint32_t kQuorum = kGroup + 1;
  const auto offset = static_cast<std::uint32_t>(Rng(seed).next_below(kN));
  // The lineage takes `size` ids starting at offset+lo (mod n); the rest
  // follow in the same rotated order, in inert groups of <= 32 whose
  // edges shift with lo, so every verb re-views all n processes.
  auto carve = [offset](std::uint32_t lo, std::uint32_t size) {
    Verb verb;
    verb.kind = Verb::Kind::kPartition;
    verb.groups.resize(1 + (kN - size + kGroup - 1) / kGroup);
    for (std::uint32_t k = 0; k < kN; ++k) {
      const ProcessId p((offset + lo + k) % kN);
      verb.groups[k < size ? 0 : 1 + (k - size) / kGroup].insert(p);
    }
    verb.expect = verb.groups[0];
    return verb;
  };
  Script script;
  script.n = kN;
  for (std::uint32_t q = kN / 2 + 1; q >= kQuorum; q = q / 2 + 1) {
    script.cascade.push_back(carve(0, q));
    if (q == kQuorum) break;
  }
  script.verb = [carve](std::uint64_t i) {
    return carve(i % 2 == 0 ? 1 : 0, kQuorum);
  };
  script.warmup = 2;
  script.setup_reps = 2;
  script.rss_after_verbs = 30;
  script.reference_verbs = 4;
  script.reference_digest = 0xb73964c0557ffdfeULL;
  // One verb leaves tens of thousands of probe entries per worker lane;
  // the rings must hold a whole verb for its window to be attributable.
  script.probe_capacity = std::size_t{1} << 17;
  return script;
}

Script churn_script(std::uint64_t seed) {
  constexpr std::uint32_t kN = 16;
  constexpr std::uint32_t kMinority = kN / 2 - 1;
  std::vector<ProcessId> order;
  for (std::uint32_t i = 0; i < kN; ++i) order.emplace_back(i);
  Rng rng(seed);
  rng.shuffle(order);
  const ProcessSet everyone = ProcessSet::range(kN);
  Script script;
  script.n = kN;
  script.verb = [order, everyone](std::uint64_t i) {
    const std::uint64_t cycle = i / 4;
    const ProcessId victim = order[cycle % kN];
    Verb verb;
    verb.expect = everyone;
    switch (i % 4) {
      case 0: {
        ProcessSet minority;
        for (std::uint32_t j = 1; j <= kMinority; ++j) {
          minority.insert(order[(cycle + j) % kN]);
        }
        verb.kind = Verb::Kind::kPartition;
        verb.groups = {everyone.set_difference(minority), minority};
        verb.expect = verb.groups[0];
        break;
      }
      case 1:
        verb.kind = Verb::Kind::kMerge;
        break;
      case 2:
        verb.kind = Verb::Kind::kCrash;
        verb.p = victim;
        verb.expect = everyone.set_difference(ProcessSet{victim});
        break;
      default:
        verb.kind = Verb::Kind::kRecover;
        verb.p = victim;
        break;
    }
    return verb;
  };
  script.warmup = 4;
  script.setup_reps = 20;
  script.rss_after_verbs = 1200;
  script.reference_verbs = 64;
  script.reference_digest = 0x5b84964e43d59a50ULL;
  script.probe_capacity = std::size_t{1} << 13;
  return script;
}

void apply(RuntimeFleet& fleet, const Verb& verb) {
  switch (verb.kind) {
    case Verb::Kind::kPartition:
      fleet.partition(verb.groups);
      break;
    case Verb::Kind::kMerge:
      fleet.merge();
      break;
    case Verb::Kind::kCrash:
      fleet.crash(verb.p);
      break;
    case Verb::Kind::kRecover:
      fleet.recover(verb.p);
      fleet.merge();
      break;
  }
}

/// Topology call and settle timed apart, for the membership and sim
/// layer metrics.
struct DesVerbCost {
  double topology_ms = 0;
  double settle_cpu_ms = 0;
};

DesVerbCost apply(Cluster& cluster, const Verb& verb) {
  DesVerbCost cost;
  const std::uint64_t t0 = steady_ns();
  switch (verb.kind) {
    case Verb::Kind::kPartition:
      cluster.partition(verb.groups);
      break;
    case Verb::Kind::kMerge:
      cluster.merge();
      break;
    case Verb::Kind::kCrash:
      cluster.crash(verb.p);
      break;
    case Verb::Kind::kRecover:
      cluster.recover(verb.p);
      cluster.settle();
      cluster.merge();
      break;
  }
  cost.topology_ms = static_cast<double>(steady_ns() - t0) / 1e6;
  const double c0 = cpu_ms();
  cluster.settle();
  cost.settle_cpu_ms = cpu_ms() - c0;
  return cost;
}

/// Did every member of `expect` form the same primary, with exactly
/// `expect` as members, after t0?
struct Outcome {
  bool formed = true;
  std::uint64_t formed_ns = 0;  // last member's formation
  std::uint64_t view_ns = 0;    // last member's view install
  ProcessId critical;
};

Outcome evaluate(const Recorder& rec, const ProcessSet& expect,
                 std::uint64_t t0_ns) {
  Outcome out;
  const Session* session = nullptr;
  for (ProcessId p : expect) {
    const ProcessLog& log = rec.logs[p.value()];
    if (!log.primary || log.formed_ns < t0_ns ||
        log.session.members != expect ||
        (session != nullptr && log.session.number != session->number)) {
      out.formed = false;
      return out;
    }
    session = &log.session;
    if (log.formed_ns >= out.formed_ns) {
      out.formed_ns = log.formed_ns;
      out.critical = p;
    }
    out.view_ns = std::max(out.view_ns, log.view_ns);
  }
  return out;
}

/// C1: at most one primary session among live processes.
bool c1_holds(const Recorder& rec, const std::vector<bool>& alive) {
  const Session* first = nullptr;
  for (std::size_t i = 0; i < rec.logs.size(); ++i) {
    const ProcessLog& log = rec.logs[i];
    if (!alive[i] || !log.primary) continue;
    if (first == nullptr) {
      first = &log.session;
    } else if (log.session != *first) {
      return false;
    }
  }
  return true;
}

void track_alive(std::vector<bool>& alive, const Verb& verb) {
  if (verb.kind == Verb::Kind::kCrash) alive[verb.p.value()] = false;
  if (verb.kind == Verb::Kind::kRecover) alive[verb.p.value()] = true;
}

/// One fleet lifecycle. The fleet's nodes point at the recorder, so the
/// fleet goes first: it is declared last, and callers reset it before
/// replacing a FleetRun.
struct FleetRun {
  std::unique_ptr<Recorder> rec;
  std::unique_ptr<RuntimeFleet> fleet;
  std::vector<bool> alive;
};

/// Construction through start(), the cascade and the warm-up verbs.
FleetRun build(const Script& script, bool probes) {
  runtime::FleetOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = script.n;
  options.backend = runtime::RuntimeBackend::kPool;
  options.workers = kWorkers;
  options.config.persistence.cross_check = false;
  options.runtime.probes = probes;
  if (probes) options.runtime.probe_capacity = script.probe_capacity;
  FleetRun run;
  run.fleet = std::make_unique<RuntimeFleet>(options);
  runtime::RuntimeTransport* transport = &run.fleet->transport();
  run.rec = std::make_unique<Recorder>(
      script.n, [transport] { return transport->now_ns(); });
  for (std::uint32_t i = 0; i < script.n; ++i) {
    run.fleet->protocol(ProcessId(i)).set_observer(run.rec.get());
  }
  run.alive.assign(script.n, true);
  run.fleet->start();
  for (const Verb& verb : script.cascade) apply(*run.fleet, verb);
  for (std::uint64_t i = 0; i < script.warmup; ++i) {
    const Verb verb = script.verb(i);
    apply(*run.fleet, verb);
    track_alive(run.alive, verb);
  }
  return run;
}

/// Sums of per-process transport counters.
struct Counters {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_epoch = 0;
  std::uint64_t persists = 0;
  std::uint64_t persist_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t views = 0;
  std::uint64_t attempts = 0;
  std::uint64_t rejections = 0;
  std::uint64_t formed = 0;

  Counters operator-(const Counters& o) const {
    return {sent - o.sent,
            delivered - o.delivered,
            dropped_epoch - o.dropped_epoch,
            persists - o.persists,
            persist_bytes - o.persist_bytes,
            checkpoints - o.checkpoints,
            views - o.views,
            attempts - o.attempts,
            rejections - o.rejections,
            formed - o.formed};
  }
};

Counters read_counters(FleetRun& run) {
  Counters c;
  for (ProcessId p : run.fleet->processes()) {
    obs::MetricsRegistry& m = run.fleet->transport().metrics(p);
    c.sent += m.counter("rt.sent").value();
    c.delivered += m.counter("rt.delivered").value();
    c.dropped_epoch += m.counter("rt.dropped_link_epoch").value();
    c.persists += m.counter("dv.storage.persists").value();
    c.persist_bytes += m.counter("dv.storage.wal_bytes").value() +
                       m.counter("dv.storage.checkpoint_bytes").value();
    c.checkpoints += m.counter("dv.storage.checkpoints").value();
    const ProcessLog& log = run.rec->logs[p.value()];
    c.views += log.views;
    c.attempts += log.attempts;
    c.rejections += log.rejections;
    c.formed += log.led;
  }
  return c;
}

/// What a run must reproduce on the DES after `verbs` timed verbs.
struct Expected {
  std::uint64_t verbs = 0;
  std::vector<std::uint64_t> transcripts;
  std::vector<std::optional<Session>> primaries;
  std::vector<std::uint64_t> formed_counts;
};

struct Segment {
  std::uint64_t verbs = 0;
  std::uint64_t failed = 0;
  bool c1 = true;
  double wall_s = 0;
  double cpu_loop_ms = 0;   // the whole timed loop
  double cpu_verbs_ms = 0;  // inside verb calls only (overhead estimate)
  Counters counters;
  std::vector<double> latency_us;
  std::vector<double> view_us;
  std::vector<double> view_to_attempt_us;
  std::vector<double> attempt_to_formed_us;
  // Traced only.
  std::vector<double> quiesce_us;
  std::vector<double> queued_us;
  std::vector<double> parked_us;
  std::vector<double> executing_us;
  std::vector<double> batch;
  std::uint64_t wakeups = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t truncated_windows = 0;
  double trace_events_per_process = 0;
  double rss_mb = 0;
  std::vector<CapturedState> states;
  Expected expected;
};

/// Runs verbs for `seconds`, then on, up to kMaxStretch times as long,
/// until `min_tail` latency samples lie beyond their p90.
Segment timed_loop(const Script& script, FleetRun& run, double seconds,
                   bool traced, std::size_t min_tail) {
  Segment seg;
  RuntimeFleet& fleet = *run.fleet;
  runtime::RuntimeTransport& transport = fleet.transport();
  const Counters before = read_counters(run);
  const double cpu0 = cpu_ms();
  const std::uint64_t wall0 = steady_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  auto more = [&] {
    const std::uint64_t elapsed = steady_ns() - wall0;
    return elapsed < budget ||
           (samples_beyond(seg.latency_us.size(), 0.9) < min_tail &&
            elapsed < kMaxStretch * budget);
  };
  for (std::uint64_t i = script.warmup; more(); ++i) {
    const Verb verb = script.verb(i);
    const std::uint64_t t0 = transport.now_ns();
    const double c0 = cpu_ms();
    apply(fleet, verb);
    seg.cpu_verbs_ms += cpu_ms() - c0;
    const std::uint64_t t1 = transport.now_ns();
    track_alive(run.alive, verb);
    if (++seg.verbs == script.rss_after_verbs) seg.rss_mb = peak_rss_mb();
    const Outcome out = evaluate(*run.rec, verb.expect, t0);
    const bool c1 = c1_holds(*run.rec, run.alive);
    seg.c1 &= c1;
    if (!out.formed || !c1) {
      ++seg.failed;
      continue;
    }
    const ProcessLog& critical = run.rec->logs[out.critical.value()];
    seg.latency_us.push_back(static_cast<double>(out.formed_ns - t0) / 1e3);
    seg.view_us.push_back(static_cast<double>(out.view_ns - t0) / 1e3);
    seg.view_to_attempt_us.push_back(
        static_cast<double>(critical.attempt_ns - critical.view_ns) / 1e3);
    seg.attempt_to_formed_us.push_back(
        static_cast<double>(critical.formed_ns - critical.attempt_ns) / 1e3);
    if (!traced) continue;

    // The barrier's own cost, on a fleet with nothing in flight.
    const std::uint64_t q0 = steady_ns();
    transport.quiesce();
    seg.quiesce_us.push_back(static_cast<double>(steady_ns() - q0) / 1e3);

    const std::vector<obs::ThreadProbeLog> logs = fleet.probe_logs();
    const std::uint32_t lane = transport.lane_of(out.critical);
    const obs::PhaseBreakdown phases =
        obs::attribute_window(logs.at(lane).entries, t0, out.formed_ns);
    seg.queued_us.push_back(static_cast<double>(phases.queued_ns) / 1e3);
    seg.parked_us.push_back(static_cast<double>(phases.parked_ns) / 1e3);
    seg.executing_us.push_back(static_cast<double>(phases.executing_ns) / 1e3);
    for (const obs::ThreadProbeLog& log : logs) {
      if (log.thread == obs::kControllerLane) continue;
      if (!log.entries.empty() && log.entries.front().t_ns > t0) {
        ++seg.truncated_windows;  // the ring wrapped inside this verb
      }
      for (const obs::ProbeEntry& e : log.entries) {
        if (e.t_ns < t0 || e.t_ns > t1) continue;
        switch (e.kind) {
          case obs::ProbeKind::kWakeup:
            ++seg.wakeups;
            break;
          case obs::ProbeKind::kHandoff:
            ++seg.handoffs;
            break;
          case obs::ProbeKind::kBatch:
            seg.batch.push_back(static_cast<double>(e.value));
            break;
          default:
            break;
        }
      }
    }
  }
  seg.wall_s = static_cast<double>(steady_ns() - wall0) / 1e9;
  seg.cpu_loop_ms = cpu_ms() - cpu0;
  if (seg.verbs < script.rss_after_verbs) {
    std::fprintf(stderr, "only %llu verbs ran; peak RSS read at the end\n",
                 static_cast<unsigned long long>(seg.verbs));
    seg.rss_mb = peak_rss_mb();
  }

  fleet.stop();
  seg.counters = read_counters(run) - before;
  seg.expected.verbs = seg.verbs;
  double trace_events = 0;
  for (ProcessId p : fleet.processes()) {
    ProtocolNode& node = fleet.protocol(p);
    seg.expected.transcripts.push_back(run.rec->logs[p.value()].transcript);
    seg.expected.primaries.push_back(node.primary_session());
    seg.expected.formed_counts.push_back(node.formed_count());
    trace_events += static_cast<double>(transport.trace(p).events().size());
    if (traced) {
      seg.states.push_back(CapturedState{p, state_of(node),
                                         fleet.config().core,
                                         run.rec->logs[p.value()].last_view});
    }
  }
  seg.trace_events_per_process =
      trace_events / static_cast<double>(script.n);
  return seg;
}

/// The DES replay of the same script: checks every segment's transcript
/// and measures the sim/membership layers on the same verbs.
struct Oracle {
  bool equal = true;
  /// Fold of every process's transcript, primary and formed count.
  std::uint64_t digest = kFnvBasis;
  std::vector<double> latency_ticks;
  std::uint64_t verbs = 0;
  std::uint64_t formed = 0;
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  double topology_ms = 0;
  double settle_cpu_ms = 0;
};

/// Replays set-up plus `verbs` timed verbs on the DES, comparing against
/// each of `checks` when the replay reaches its verb count.
Oracle replay_on_des(const Script& script, std::uint64_t seed,
                     std::uint64_t verbs, bool audit,
                     const std::vector<const Expected*>& checks) {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = script.n;
  options.config.persistence.cross_check = audit;
  options.sim.seed = seed;
  options.trace_capacity = 1024;
  Cluster cluster(options);
  Recorder rec(script.n, steady_ns);
  for (std::uint32_t i = 0; i < script.n; ++i) {
    cluster.protocol(ProcessId(i)).set_observer(&rec);
  }
  cluster.start();
  for (const Verb& verb : script.cascade) apply(cluster, verb);
  for (std::uint64_t i = 0; i < script.warmup; ++i) {
    apply(cluster, script.verb(i));
  }

  Oracle oracle;
  auto compare = [&](std::uint64_t done) {
    for (const Expected* e : checks) {
      if (e->verbs != done) continue;
      for (std::uint32_t i = 0; i < script.n; ++i) {
        const ProtocolNode& node = cluster.protocol(ProcessId(i));
        if (rec.logs[i].transcript != e->transcripts[i] ||
            node.primary_session() != e->primaries[i] ||
            node.formed_count() != e->formed_counts[i]) {
          std::fprintf(stderr,
                       "DES oracle diverges at p%u after %llu timed verbs\n",
                       i, static_cast<unsigned long long>(done));
          oracle.equal = false;
          break;
        }
      }
    }
  };
  compare(0);
  std::uint64_t led0 = 0;
  for (const ProcessLog& log : rec.logs) led0 += log.led;
  const std::uint64_t events0 = cluster.sim().queue().executed();
  const std::uint64_t bytes0 = cluster.sim().network().stats().bytes_sent;
  for (std::uint64_t k = 0; k < verbs; ++k) {
    const Verb verb = script.verb(script.warmup + k);
    const SimTime t0 = cluster.sim().now();
    const DesVerbCost cost = apply(cluster, verb);
    oracle.topology_ms += cost.topology_ms;
    oracle.settle_cpu_ms += cost.settle_cpu_ms;
    SimTime last = 0;
    bool formed = true;
    for (ProcessId p : verb.expect) {
      const ProcessLog& log = rec.logs[p.value()];
      formed &= log.primary && log.formed_time >= t0;
      last = std::max(last, log.formed_time);
    }
    if (formed) oracle.latency_ticks.push_back(static_cast<double>(last - t0));
    compare(k + 1);
  }
  oracle.verbs = verbs;
  for (const ProcessLog& log : rec.logs) oracle.formed += log.led;
  oracle.formed -= led0;
  oracle.events = cluster.sim().queue().executed() - events0;
  oracle.bytes = cluster.sim().network().stats().bytes_sent - bytes0;
  for (std::uint32_t i = 0; i < script.n; ++i) {
    const ProtocolNode& node = cluster.protocol(ProcessId(i));
    oracle.digest = fnv_fold(oracle.digest, rec.logs[i].transcript);
    oracle.digest = fnv_fold(oracle.digest, node.primary_session()
                                                ? node.primary_session()->number
                                                : 0);
    oracle.digest = fnv_fold(oracle.digest, node.formed_count());
  }
  return oracle;
}

Script make_script(const std::string& workload, std::uint64_t seed) {
  return workload == "pool-lineage-256" ? lineage_script(seed)
                                        : churn_script(seed);
}

}  // namespace

void run_pool_workload(const Args& args, Report& report) {
  const Script script = make_script(args.workload, args.seed);

  // Set-up is timed script.setup_reps times at each of three points of
  // an untraced run (before the timed loop, after it, and after the DES
  // replays), so its samples span the host's slow and fast spells over
  // the whole run; the median is the metric. It is timed on the CPU time
  // of all threads, which the host's steal does not inflate. The last
  // fleet set up before the loop is the timed one.
  std::vector<double> setup_s;
  auto set_up = [&](FleetRun& run) {
    run.fleet.reset();  // tear the previous fleet down outside the timing
    const double c0 = cpu_ms();
    run = build(script, /*probes=*/false);
    setup_s.push_back((cpu_ms() - c0) / 1e3);
  };
  auto set_up_spares = [&] {
    if (args.trace) return;
    FleetRun spare;
    for (int rep = 0; rep < script.setup_reps; ++rep) set_up(spare);
    spare.fleet.reset();
  };
  FleetRun run;
  for (int rep = 0; rep < (args.trace ? 1 : script.setup_reps); ++rep) {
    set_up(run);
  }

  // Untraced loop. In a traced run it takes half the time and serves as
  // the baseline of the probe-overhead estimate.
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  Segment plain = timed_loop(script, run, seconds, /*traced=*/false,
                             args.trace ? 0 : kMinTailSamples);
  run.fleet.reset();
  set_up_spares();

  Segment traced;
  if (args.trace) {
    run = build(script, /*probes=*/true);
    traced = timed_loop(script, run, seconds, /*traced=*/true,
                        /*min_tail=*/0);
    run.fleet.reset();
  }

  std::vector<const Expected*> checks = {&plain.expected};
  if (args.trace) checks.push_back(&traced.expected);
  const Oracle oracle =
      replay_on_des(script, args.seed, std::max(plain.verbs, traced.verbs),
                    /*audit=*/false, checks);

  const std::uint64_t reference =
      replay_on_des(make_script(args.workload, kDefaultSeed), kDefaultSeed,
                    script.reference_verbs, /*audit=*/true, {})
          .digest;
  std::printf("reference digest: %016llx\n",
              static_cast<unsigned long long>(reference));
  set_up_spares();

  report.attempted = plain.verbs + traced.verbs;
  report.failed = plain.failed + traced.failed;
  if (!oracle.equal) {
    report.fail("runtime transcript differs from the DES oracle");
    report.failed = report.attempted;
  }
  if (reference != script.reference_digest) {
    report.fail("pinned reference digest changed");
    report.failed = report.attempted;
  }
  if (!plain.c1 || !traced.c1) report.fail("C1 broke: two live primaries");
  if (report.failed > 0) {
    report.fail(std::to_string(report.failed) + " verbs failed");
  }
  if (!args.trace &&
      samples_beyond(plain.latency_us.size(), 0.9) < kMinTailSamples) {
    report.fail("too few formed verbs for reconfig_p90_us");
  }
  if (traced.truncated_windows > 0) {
    report.fail("probe rings wrapped inside a verb; raise probe_capacity");
  }

  const auto n = static_cast<double>(script.n);
  if (!args.trace) {
    const Segment& s = plain;
    const auto formed = static_cast<double>(s.counters.formed);
    report.metric("setup_s", median(setup_s), "s", setup_s.size());
    report.metric("formed_per_s", per(formed, s.wall_s), "1/s");
    report.metric("cpu_ms_per_formed", per(s.cpu_loop_ms, formed), "ms");
    report.metric("reconfig_p50_us", quantile(s.latency_us, 0.5), "us",
                  s.latency_us.size());
    report.metric("reconfig_p90_us", quantile(s.latency_us, 0.9), "us",
                  s.latency_us.size());
    report.metric("reconfig_p50_ticks", quantile(oracle.latency_ticks, 0.5),
                  "ticks", oracle.latency_ticks.size());
    report.metric("reconfig_p99_ticks", quantile(oracle.latency_ticks, 0.99),
                  "ticks", oracle.latency_ticks.size());
    report.metric("rss_mb_per_process", s.rss_mb / n, "MB");
    report.metric("msgs_per_formed",
                  per(static_cast<double>(s.counters.sent), formed), "1");
    return;
  }

  const Segment& s = traced;
  const Counters& c = s.counters;
  const auto formed = static_cast<double>(c.formed);
  const auto verbs = static_cast<double>(s.verbs);
  report.metric("runtime.epoch_drops_per_formed",
                per(static_cast<double>(c.dropped_epoch), formed), "1");
  report.metric("runtime.delivered_frac",
                per(static_cast<double>(c.delivered),
                    static_cast<double>(c.sent)),
                "1");
  report.metric("runtime.queued_us", median(s.queued_us), "us",
                s.queued_us.size());
  report.metric("runtime.parked_us", median(s.parked_us), "us",
                s.parked_us.size());
  report.metric("runtime.executing_us", median(s.executing_us), "us",
                s.executing_us.size());
  report.metric("runtime.wakeups_per_formed",
                per(static_cast<double>(s.wakeups), formed), "1");
  report.metric("runtime.handoffs_per_formed",
                per(static_cast<double>(s.handoffs), formed), "1");
  report.metric("runtime.batch_p50", median(s.batch), "1", s.batch.size());
  report.metric("runtime.quiesce_us", median(s.quiesce_us), "us",
                s.quiesce_us.size());

  report.metric("membership.views_per_verb",
                per(static_cast<double>(c.views), verbs), "1");
  report.metric("membership.verb_to_view_us", median(s.view_us), "us",
                s.view_us.size());
  report.metric("membership.topology_ms_per_verb",
                per(oracle.topology_ms, static_cast<double>(oracle.verbs)),
                "ms");

  report.metric("dv.view_to_attempt_us", median(s.view_to_attempt_us), "us",
                s.view_to_attempt_us.size());
  report.metric("dv.attempt_to_formed_us", median(s.attempt_to_formed_us),
                "us", s.attempt_to_formed_us.size());
  report.metric("dv.attempts_per_formed",
                per(static_cast<double>(c.attempts), formed), "1");
  report.metric("dv.rejected_per_verb",
                per(static_cast<double>(c.rejections), verbs), "1");

  const StateLayers layers = time_state_layers(s.states, 64);
  report.metric("dv.state_bytes_per_process", layers.state_bytes, "bytes");
  report.metric("dv.last_formed_entries_per_process",
                layers.last_formed_entries, "1");
  report.metric("codec.state_encode_us", layers.encode_us, "us");
  report.metric("codec.state_decode_us", layers.decode_us, "us");
  report.metric("wal.persists_per_formed",
                per(static_cast<double>(c.persists), formed), "1");
  report.metric("wal.bytes_per_formed",
                per(static_cast<double>(c.persist_bytes), formed), "bytes");
  report.metric("wal.checkpoints_per_formed",
                per(static_cast<double>(c.checkpoints), formed), "1");
  report.metric("wal.checkpoint_us", layers.checkpoint_us, "us");
  report.metric("wal.recover_us", layers.recover_us, "us");
  report.metric("wal.audit_us", layers.audit_us, "us");
  report.metric("quorum.sub_quorum_ns", layers.sub_quorum_ns, "ns");

  const auto oracle_formed = static_cast<double>(oracle.formed);
  report.metric("sim.events_per_formed",
                per(static_cast<double>(oracle.events), oracle_formed), "1");
  report.metric("sim.bytes_per_formed",
                per(static_cast<double>(oracle.bytes), oracle_formed),
                "bytes");
  report.metric("sim.settle_ms_per_verb",
                per(oracle.settle_cpu_ms, static_cast<double>(oracle.verbs)),
                "ms");
  report.metric("sim.ns_per_event",
                per(oracle.settle_cpu_ms * 1e6,
                    static_cast<double>(oracle.events)),
                "ns");

  // The shard layer does not run on these workloads.
  report.metric("shard.groups_reconfigured_per_verb", 0, "1");
  report.metric("shard.kv_write_us", 0, "us");
  report.metric("shard.kv_rejected_frac", 0, "1");

  report.metric("obs.trace_events_per_process", s.trace_events_per_process,
                "1");
  const double plain_cpu = per(plain.cpu_verbs_ms,
                               static_cast<double>(plain.counters.formed));
  const double traced_cpu = per(s.cpu_verbs_ms, formed);
  report.metric("obs.probe_overhead_frac",
                per(traced_cpu - plain_cpu, plain_cpu), "1");
  report.metric("obs.telemetry_overhead_frac", 0, "1");
}

}  // namespace perfbench
