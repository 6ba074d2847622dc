// Experiment E10 — micro-benchmarks (google-benchmark): the protocol's
// internal costs. The paper claims "communication and memory
// requirements are small and it is simple to implement"; these benches
// quantify the local-computation side: Sub_Quorum evaluation, set
// algebra, state serialization, the optimized protocol's learning pass,
// and a whole simulated session end to end.
#include <benchmark/benchmark.h>

#include "dv/optimized_protocol.hpp"
#include "dv/state.hpp"
#include "harness/cluster.hpp"
#include "quorum/sub_quorum.hpp"
#include "util/codec.hpp"
#include "util/process_set.hpp"
#include "util/rng.hpp"

namespace dynvote {
namespace {

/// Test access: exposes the protected learning/resolution pass and lets
/// the bench install a synthetic state.
class LearningBenchProtocol : public OptimizedDvProtocol {
 public:
  using OptimizedDvProtocol::OptimizedDvProtocol;
  void run_learning(const InfoBySender& infos) { pre_decision_update(infos); }
  void install_state(ProtocolState state) { state_ = std::move(state); }
};

ProcessSet random_subset(Rng& rng, std::uint32_t n, std::uint32_t size) {
  std::vector<ProcessId> all;
  for (std::uint32_t i = 0; i < n; ++i) all.emplace_back(i);
  rng.shuffle(all);
  return ProcessSet(std::vector<ProcessId>(all.begin(), all.begin() + size));
}

void BM_ProcessSetIntersection(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(1);
  const ProcessSet a = random_subset(rng, n, n / 2 + 1);
  const ProcessSet b = random_subset(rng, n, n / 2 + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersection_size(b));
  }
}
BENCHMARK(BM_ProcessSetIntersection)->Arg(8)->Arg(32)->Arg(128)->Arg(1024);

void BM_ProcessSetUnion(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(2);
  const ProcessSet a = random_subset(rng, n, n / 2 + 1);
  const ProcessSet b = random_subset(rng, n, n / 2 + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.set_union(b));
  }
}
BENCHMARK(BM_ProcessSetUnion)->Arg(8)->Arg(128)->Arg(1024);

void BM_SubQuorumEvaluation(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(3);
  const QuorumCalculus calc(ProcessSet::range(n), n / 4 + 1);
  const ProcessSet prev = random_subset(rng, n, n / 2 + 1);
  const ProcessSet next = random_subset(rng, n, n / 2 + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.sub_quorum(prev, next));
  }
}
BENCHMARK(BM_SubQuorumEvaluation)->Arg(8)->Arg(32)->Arg(128)->Arg(1024);

void BM_EligibilityWithAmbiguousSessions(benchmark::State& state) {
  // The attempt-step decision with k recorded ambiguous attempts — the
  // quantity Theorem 1 bounds by n - Min_Quorum + 1.
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::uint32_t n = 32;
  Rng rng(4);
  const QuorumCalculus calc(ProcessSet::range(n), 2);
  const ProcessSet view = random_subset(rng, n, 20);
  StepAggregates agg;
  agg.max_session = static_cast<SessionNumber>(k);
  agg.max_primary = Session{random_subset(rng, n, 17), 0};
  for (std::size_t i = 0; i < k; ++i) {
    agg.max_ambiguous.push_back(
        Session{random_subset(rng, n, 17), static_cast<SessionNumber>(i + 1)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_eligibility(calc, agg, view));
  }
}
BENCHMARK(BM_EligibilityWithAmbiguousSessions)->Arg(1)->Arg(8)->Arg(31);

void BM_LearningAndResolutionPass(benchmark::State& state) {
  // The optimized protocol's step-2 garbage collection (paper 5.2 /
  // figure 2): k recorded ambiguous sessions examined against the
  // Last_Formed gossip of a full view. This is the per-session price of
  // the Theorem-1 storage bound.
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::uint32_t n = 16;
  const ProcessSet core = ProcessSet::range(n);
  Rng rng(8);

  sim::Simulator sim;
  DvConfig config;  // Min_Quorum 1, static participants, no record limit
  config.core = core;
  auto protocol =
      std::make_unique<LearningBenchProtocol>(sim, ProcessId(0), config);
  auto* bench_protocol = protocol.get();
  sim.add_node(std::move(protocol));

  // k ambiguous sessions at p0, all containing a few common peers.
  ProtocolState proto_state = ProtocolState::initial(core, ProcessId(0));
  for (std::size_t i = 0; i < k; ++i) {
    ProcessSet members = random_subset(rng, n, 9);
    members.insert(ProcessId(0));
    proto_state.record_attempt(
        Session{members, static_cast<SessionNumber>(i + 1)}, ProcessId(0));
  }

  // Step-1 messages of a full view: everyone still reports F0 history.
  std::vector<InfoPayload> payloads(n);
  InfoBySender infos;
  for (std::uint32_t q = 0; q < n; ++q) {
    payloads[q].session_number = 0;
    payloads[q].last_primary = Session{core, 0};
    for (ProcessId r : core) payloads[q].last_formed.emplace(r, Session{core, 0});
    infos.emplace(ProcessId(q), &payloads[q]);
  }

  for (auto _ : state) {
    state.PauseTiming();
    bench_protocol->install_state(proto_state);  // learning mutates it
    state.ResumeTiming();
    bench_protocol->run_learning(infos);
  }
}
BENCHMARK(BM_LearningAndResolutionPass)->Arg(1)->Arg(4)->Arg(16);

void BM_StateEncode(benchmark::State& state) {
  const auto ambiguous = static_cast<std::size_t>(state.range(0));
  const std::uint32_t n = 16;
  Rng rng(5);
  ProtocolState proto_state = ProtocolState::initial(ProcessSet::range(n), ProcessId(0));
  for (std::size_t i = 0; i < ambiguous; ++i) {
    ProcessSet members = random_subset(rng, n, 9);
    members.insert(ProcessId(0));
    proto_state.record_attempt(
        Session{members, static_cast<SessionNumber>(i + 1)}, ProcessId(0));
  }
  for (auto _ : state) {
    Encoder enc;
    proto_state.encode(enc);
    benchmark::DoNotOptimize(enc.size());
  }
  // Report the stable-storage record size the paper's write-ahead rule pays.
  Encoder enc;
  proto_state.encode(enc);
  state.counters["state_bytes"] = static_cast<double>(enc.size());
}
BENCHMARK(BM_StateEncode)->Arg(0)->Arg(4)->Arg(15);

void BM_StateDecode(benchmark::State& state) {
  const std::uint32_t n = 16;
  Rng rng(6);
  ProtocolState proto_state = ProtocolState::initial(ProcessSet::range(n), ProcessId(0));
  for (std::size_t i = 0; i < 8; ++i) {
    ProcessSet members = random_subset(rng, n, 9);
    members.insert(ProcessId(0));
    proto_state.record_attempt(
        Session{members, static_cast<SessionNumber>(i + 1)}, ProcessId(0));
  }
  Encoder enc;
  proto_state.encode(enc);
  const auto bytes = std::move(enc).take();
  for (auto _ : state) {
    Decoder dec(bytes);
    benchmark::DoNotOptimize(ProtocolState::decode(dec));
  }
}
BENCHMARK(BM_StateDecode);

void BM_FullSimulatedSession(benchmark::State& state) {
  // End-to-end: a partition plus a merge, i.e. two complete protocol
  // sessions over the simulated network, everything included (views,
  // codec, stable storage).
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto kind = static_cast<ProtocolKind>(state.range(1));
  ClusterOptions options;
  options.kind = kind;
  options.n = n;
  options.sim.seed = 7;
  // Throughput bench: skip the replay-equals-snapshot audit (O(state)
  // per persist, on by default for tests) so the measured path is the
  // production one. The persistence suite covers the audit.
  options.config.persistence.cross_check = false;
  Cluster cluster(options);
  cluster.start();
  ProcessSet majority;
  for (std::uint32_t i = 1; i < n; ++i) majority.insert(ProcessId(i));
  // One untimed warmup cycle: the first partition/merge pair does the
  // initial formation work, every later cycle is steady-state and sends
  // the exact same number of messages. Reporting the per-cycle delta
  // keeps "msgs" deterministic no matter how many iterations the
  // benchmark runner picks (the raw total scales with iteration count).
  cluster.partition({majority, ProcessSet::of({0})});
  cluster.settle();
  cluster.merge();
  cluster.settle();
  const auto warm = cluster.sim().network().stats().messages_sent;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    cluster.partition({majority, ProcessSet::of({0})});
    cluster.settle();
    cluster.merge();
    cluster.settle();
    ++cycles;
  }
  const auto sent = cluster.sim().network().stats().messages_sent - warm;
  state.counters["msgs"] =
      cycles == 0 ? 0.0
                  : static_cast<double>(sent) / static_cast<double>(cycles);
}
BENCHMARK(BM_FullSimulatedSession)
    ->Args({5, static_cast<int>(ProtocolKind::kBasic)})
    ->Args({5, static_cast<int>(ProtocolKind::kOptimized)})
    ->Args({15, static_cast<int>(ProtocolKind::kBasic)})
    ->Args({15, static_cast<int>(ProtocolKind::kOptimized)})
    ->Args({31, static_cast<int>(ProtocolKind::kOptimized)});

}  // namespace
}  // namespace dynvote

BENCHMARK_MAIN();
