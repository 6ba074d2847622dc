// Unit tests: the observability layer — JSON codec, metrics registry,
// trace ring buffer, deterministic trace export, and the checker's
// trace-replay mode.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/availability.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "harness/trace_replay.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace dynvote {
namespace {

// ---- util/json --------------------------------------------------------------

TEST(JsonTest, RoundTripsScalarsAndContainers) {
  JsonValue obj = JsonValue::object();
  obj.set("b", JsonValue(true));
  obj.set("i", JsonValue(std::int64_t{-42}));
  obj.set("u", JsonValue(std::uint64_t{18446744073709551615ULL}));
  obj.set("d", JsonValue(0.25));
  obj.set("s", JsonValue("with \"quotes\" and\nnewline"));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue(std::uint64_t{1}));
  arr.push_back(JsonValue(nullptr));
  obj.set("a", std::move(arr));

  const std::string text = obj.dump();
  const JsonValue parsed = JsonValue::parse(text);
  EXPECT_TRUE(parsed.at("b").as_bool());
  EXPECT_EQ(parsed.at("i").as_int(), -42);
  EXPECT_EQ(parsed.at("u").as_uint(), 18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(parsed.at("d").as_double(), 0.25);
  EXPECT_EQ(parsed.at("s").as_string(), "with \"quotes\" and\nnewline");
  ASSERT_EQ(parsed.at("a").as_array().size(), 2u);
  EXPECT_TRUE(parsed.at("a").as_array()[1].is_null());
  // Serialization is deterministic: a reparse dumps identically.
  EXPECT_EQ(parsed.dump(), text);
}

TEST(JsonTest, PreservesObjectInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj.set("zebra", JsonValue(std::uint64_t{1}));
  obj.set("apple", JsonValue(std::uint64_t{2}));
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2}");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), JsonError);
  EXPECT_THROW(JsonValue::parse("[1,]"), JsonError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonError);
  EXPECT_THROW(JsonValue::parse("{} trailing"), JsonError);
  EXPECT_THROW(JsonValue::parse("nul"), JsonError);
}

// ---- obs/metrics ------------------------------------------------------------

TEST(MetricsTest, CountersGaugesHistograms) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(3);
  registry.counter("c").increment();
  EXPECT_EQ(registry.counter_value("c"), 4u);
  EXPECT_EQ(registry.counter_value("never-touched"), 0u);

  obs::Gauge& g = registry.gauge("g");
  g.set(7);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 7);

  obs::Histogram& h = registry.histogram("h");
  h.observe(1);
  h.observe(5);
  h.observe(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);

  const JsonValue json = registry.to_json();
  EXPECT_EQ(json.at("counters").at("c").as_uint(), 4u);
  EXPECT_EQ(json.at("gauges").at("g").at("max").as_int(), 7);
  EXPECT_EQ(json.at("histograms").at("h").at("count").as_uint(), 3u);

  registry.reset();
  EXPECT_EQ(registry.counter_value("c"), 0u);
  EXPECT_EQ(g.max(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsTest, ResetClearsHistogramMinForTheNextObservation) {
  // Regression: reset() used to leave min_ at the last observed value,
  // so the first post-reset observation above it never lowered the
  // minimum — and a merge_from a reset histogram poisoned the target.
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("h");
  h.observe(3);
  registry.reset();
  EXPECT_EQ(h.min(), 0u);  // empty again
  h.observe(50);
  EXPECT_EQ(h.min(), 50u);

  obs::Histogram target;
  target.observe(100);
  obs::Histogram empty;
  target.merge_from(empty);
  EXPECT_EQ(target.min(), 100u);  // empty source is a no-op
}

TEST(MetricsTest, QuantileInterpolatesWithinPowerOfTwoBuckets) {
  obs::Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  h.observe(7);
  EXPECT_EQ(h.quantile(0.0), 7.0);  // single value: clamped to [min,max]
  EXPECT_EQ(h.quantile(1.0), 7.0);
  for (std::uint64_t v = 1; v <= 1000; ++v) h.observe(v);
  // Power-of-two buckets are coarse; the estimate must land within the
  // bucket that holds the exact answer (here (512, 1024] around 500).
  const double p50 = h.quantile(0.50);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);  // clamped to the observed max
  EXPECT_LE(h.quantile(0.10), p50);
  EXPECT_LE(p50, p99);
}

TEST(MetricsTest, MergedHistogramEqualsHistogramOfConcatenatedStreams) {
  obs::Histogram left, right, all;
  for (std::uint64_t v : {1u, 8u, 9u, 500u}) { left.observe(v); all.observe(v); }
  for (std::uint64_t v : {2u, 3u, 700u}) { right.observe(v); all.observe(v); }
  obs::Histogram merged = left;
  merged.merge_from(right);
  EXPECT_EQ(merged, all);
  EXPECT_EQ(merged.quantile(0.5), all.quantile(0.5));
}

TEST(MetricsTest, InstrumentReferencesStayValidAcrossRegistrations) {
  obs::MetricsRegistry registry;
  obs::Counter& first = registry.counter("a");
  for (int i = 0; i < 100; ++i) {
    registry.counter("x" + std::to_string(i));
  }
  first.increment();
  EXPECT_EQ(registry.counter_value("a"), 1u);
}

// ---- obs/trace --------------------------------------------------------------

obs::TraceEvent event_at(SimTime t) {
  obs::TraceEvent e;
  e.time = t;
  e.kind = obs::TraceEventKind::kViewInstalled;
  return e;
}

TEST(TraceSinkTest, RingBufferEvictsOldest) {
  obs::TraceSink sink(3);
  for (SimTime t = 0; t < 5; ++t) sink.record(event_at(t));
  ASSERT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.events().front().time, 2u);
  EXPECT_EQ(sink.events().back().time, 4u);
  EXPECT_EQ(sink.overwritten(), 2u);
}

TEST(TraceSinkTest, MessageEventsAreGatedSeparately) {
  obs::TraceSink sink;
  obs::TraceEvent message;
  message.kind = obs::TraceEventKind::kMessageSend;
  sink.record(message);
  EXPECT_EQ(sink.size(), 0u);  // off by default
  sink.set_messages_enabled(true);
  sink.record(message);
  EXPECT_EQ(sink.size(), 1u);
  sink.record(event_at(1));  // protocol events always pass
  EXPECT_EQ(sink.size(), 2u);
}

TEST(TraceSinkTest, SubscribersSeeEveryRecordedEventInSubscriptionOrder) {
  obs::TraceSink sink(2);
  std::vector<std::string> calls;
  sink.subscribe([&calls](const obs::TraceEvent& e) {
    calls.push_back("first#" + std::to_string(e.eid));
  });
  sink.subscribe([&calls](const obs::TraceEvent& e) {
    calls.push_back("second#" + std::to_string(e.eid));
  });
  for (SimTime t = 0; t < 4; ++t) sink.record(event_at(t));
  obs::TraceEvent message;
  message.kind = obs::TraceEventKind::kMessageSend;
  sink.record(message);  // skipped while messages are off: not delivered
  // The ring kept two events; the subscribers saw all four, in order.
  EXPECT_EQ(sink.overwritten(), 2u);
  EXPECT_EQ(calls, (std::vector<std::string>{"first#1", "second#1", "first#2",
                                             "second#2", "first#3", "second#3",
                                             "first#4", "second#4"}));
}

// ---- deterministic export + replay -----------------------------------------

std::string run_and_export(std::uint64_t seed) {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  options.sim.seed = seed;
  options.trace_messages = true;
  Cluster cluster(options);
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  cluster.merge();
  cluster.settle();
  return trace_to_json(cluster.trace_meta(), cluster.sim().trace()).dump();
}

TEST(TraceExportTest, SameSeedProducesByteIdenticalTraces) {
  const std::string a = run_and_export(1234);
  const std::string b = run_and_export(1234);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(TraceExportTest, DifferentSeedsProduceDifferentTraces) {
  EXPECT_NE(run_and_export(1234), run_and_export(1235));
}

TEST(TraceExportTest, JsonRoundTripPreservesEvents) {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  options.sim.seed = 77;
  options.trace_messages = true;
  Cluster cluster(options);
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();

  const JsonValue exported =
      trace_to_json(cluster.trace_meta(), cluster.sim().trace());
  const TraceMetaAndEvents loaded = load_trace_json(exported.dump());

  const auto& original = cluster.sim().trace().events();
  ASSERT_EQ(loaded.events.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.events[i], original[i]) << "event " << i;
  }
  EXPECT_EQ(loaded.meta.core, cluster.core());
  EXPECT_EQ(loaded.meta.protocol, "dv-optimized");
  EXPECT_EQ(loaded.meta.ambiguity_bound, 5u);  // n=5, Min_Quorum=1
}

TEST(TraceReplayTest, CleanRunReverifiesC1AndAmbiguityBound) {
  // A full scenario exported to JSON and replayed from the text alone.
  const std::string exported = run_and_export(42);
  const TraceCheckResult verdict = check_trace(load_trace_json(exported));
  EXPECT_TRUE(verdict.consistent()) << to_string(verdict.violations);
  EXPECT_GT(verdict.formed_sessions, 0u);
  EXPECT_GT(verdict.attempts, 0u);
  EXPECT_EQ(verdict.ambiguity_bound, 5u);
  EXPECT_LE(verdict.max_ambiguous, verdict.ambiguity_bound);
}

TEST(TraceReplayTest, DetectsSplitBrainOfNaiveProtocolFromTraceAlone) {
  // The E1 scenario: the naive protocol ends with two live primaries.
  ClusterOptions options;
  options.kind = ProtocolKind::kNaiveDynamic;
  options.n = 5;
  options.sim.seed = 2026;
  Cluster cluster(options);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.info", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();

  const std::string exported =
      trace_to_json(cluster.trace_meta(), cluster.sim().trace()).dump();
  const TraceCheckResult verdict = check_trace(load_trace_json(exported));
  bool split_brain = false;
  for (const Violation& v : verdict.violations) {
    split_brain |= v.kind == "split-brain";
  }
  EXPECT_TRUE(split_brain);
  // Replay reaches the same verdicts as the live checker.
  EXPECT_EQ(verdict.violations.size(), cluster.checker().check_all().size());
  EXPECT_EQ(verdict.formed_sessions, cluster.checker().formed_session_count());
}

TEST(TraceReplayTest, ReplayVerdictEqualsLiveVerdictForEveryProtocol) {
  // The live checker subscribes to the sink; check_trace feeds the
  // exported copy through the same ConsistencyChecker::observe. On an
  // unbounded trace the two must agree on everything, broken baselines
  // included.
  ScheduleOptions schedule_options;
  schedule_options.seed = 25;
  schedule_options.duration = 3'000'000;
  schedule_options.mean_event_gap = 30'000;
  const auto schedule =
      generate_schedule(ProcessSet::range(5), schedule_options);
  std::size_t violating_protocols = 0;
  for (const ProtocolKind kind : all_protocol_kinds()) {
    ClusterOptions options;
    options.kind = kind;
    options.n = 5;
    options.sim.seed = 1;
    // Members miss the closing round of sessions (paper section 1), which
    // is what splits the broken baselines' brains.
    options.formation_miss = 0.8;
    Cluster cluster(options);
    schedule_faults(cluster, schedule);
    cluster.merge();
    cluster.settle();

    const ConsistencyChecker& live = cluster.checker();
    const TraceCheckResult replay = check_trace(load_trace_json(
        trace_json_string(cluster.trace_meta(), cluster.sim().trace())));
    const std::vector<Violation> live_violations = live.check_all();
    EXPECT_FALSE(replay.truncated) << to_string(kind);
    ASSERT_EQ(replay.violations.size(), live_violations.size())
        << to_string(kind);
    for (std::size_t i = 0; i < live_violations.size(); ++i) {
      EXPECT_EQ(replay.violations[i].kind, live_violations[i].kind);
      EXPECT_EQ(replay.violations[i].detail, live_violations[i].detail);
    }
    EXPECT_GT(live.form_events(), 0u) << to_string(kind);
    EXPECT_EQ(replay.formed_sessions, live.formed_session_count())
        << to_string(kind);
    EXPECT_EQ(replay.attempts, live.attempt_events()) << to_string(kind);
    EXPECT_EQ(replay.aborts, live.rejected_sessions()) << to_string(kind);
    if (!live_violations.empty()) ++violating_protocols;
    EXPECT_EQ(live_violations.empty(), is_consistent_protocol(kind))
        << to_string(kind);
  }
  // The comparison covered both broken baselines' violations.
  EXPECT_EQ(violating_protocols, 2u);
}

TEST(TraceReplayTest, RingBoundedTraceStillReplaysRecentEvents) {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  options.sim.seed = 7;
  options.trace_capacity = 64;
  Cluster cluster(options);
  cluster.start();
  for (int i = 0; i < 6; ++i) {
    cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
    cluster.settle();
    cluster.merge();
    cluster.settle();
  }
  const obs::TraceSink& sink = cluster.sim().trace();
  EXPECT_LE(sink.size(), 64u);
  EXPECT_GT(sink.overwritten(), 0u);

  // Subscribers saw the evicted events too: the live checker and the
  // dv.* fold agree with an unbounded twin run of the same seed.
  options.trace_capacity = 0;
  Cluster twin(options);
  twin.start();
  for (int i = 0; i < 6; ++i) {
    twin.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
    twin.settle();
    twin.merge();
    twin.settle();
  }
  EXPECT_EQ(twin.sim().trace().overwritten(), 0u);
  EXPECT_EQ(cluster.checker().formed_session_count(),
            twin.checker().formed_session_count());
  EXPECT_EQ(cluster.sim().metrics().counter_value("dv.formed"),
            twin.sim().metrics().counter_value("dv.formed"));
  std::uint64_t formed_in_ring = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    formed_in_ring += e.kind == obs::TraceEventKind::kSessionFormed ? 1 : 0;
  }
  EXPECT_LT(formed_in_ring,
            cluster.sim().metrics().counter_value("dv.formed"));
  const TraceMetaAndEvents loaded =
      load_trace_json(trace_to_json(cluster.trace_meta(), sink).dump());
  EXPECT_EQ(loaded.meta.overwritten, sink.overwritten());

  // A truncated trace is only a suffix of the execution, so the default
  // policy refuses to certify it.
  const TraceCheckResult strict = check_trace(loaded);
  EXPECT_TRUE(strict.truncated);
  EXPECT_FALSE(strict.consistent());
  ASSERT_FALSE(strict.violations.empty());
  EXPECT_EQ(strict.violations.front().kind, "truncated-trace");

  // Explicitly downgrading to a warning still replays the surviving
  // events (C1 holds on the suffix; the bound check is unaffected).
  const TraceCheckResult lenient =
      check_trace(loaded, TruncationPolicy::kWarn);
  EXPECT_TRUE(lenient.truncated);
  EXPECT_TRUE(lenient.ambiguity_ok);
  for (const Violation& v : lenient.violations) {
    EXPECT_NE(v.kind, "truncated-trace");
  }
}

TEST(MetricsIntegrationTest, ClusterPopulatesSessionAndNetworkCounters) {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  options.sim.seed = 5;
  Cluster cluster(options);
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();

  const obs::MetricsRegistry& metrics = cluster.sim().metrics();
  EXPECT_GT(metrics.counter_value("dv.formed"), 0u);
  EXPECT_GT(metrics.counter_value("dv.attempts"), 0u);
  EXPECT_GT(metrics.counter_value("net.messages_sent"), 0u);
  EXPECT_GT(metrics.counter_value("net.messages_delivered"), 0u);
  EXPECT_GT(metrics.counter_value("net.topology_changes"), 0u);
  // The registry and the stats() snapshot agree.
  EXPECT_EQ(metrics.counter_value("net.messages_sent"),
            cluster.sim().network().stats().messages_sent);
  // The dv gauge saw the ambiguous-record level.
  const auto& gauges = cluster.sim().metrics().gauges();
  ASSERT_TRUE(gauges.contains("dv.ambiguous_recorded"));
}

}  // namespace
}  // namespace dynvote
