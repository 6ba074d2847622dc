// Structured, deterministic event tracing with causal links.
//
// The TraceSink is the one protocol event stream. It records flat
// TraceEvent structs — message send/drop/deliver with cause, session
// attempt/form/abort with the eligibility verdict, topology changes,
// crashes and recoveries, ambiguous-record high-water marks, and the
// optimized protocol's ambiguity resolutions/adoptions — and hands every
// recorded event, in order, to its subscribers. The consistency checker
// (harness/checker.hpp), the dv.* metrics fold (harness/events.hpp), the
// sharded fleet's per-group router and the flight recorder are all
// subscribers; check_trace (harness/trace_replay.hpp) feeds an exported
// trace through the same checker entry point, so the live verdict and
// the replay verdict run the same code. obs/spans.hpp folds the stream
// into causal spans (session lifecycles, ambiguity lifetimes, primary
// tenures), and describe() renders one event as a line of prose.
//
// Causality: the sink assigns every recorded event a monotonically
// increasing event id (eid, starting at 1), producers stamp each event
// with the recording process's Lamport clock (carried across messages by
// sim::Network), and `cause` links an effect to the eid of the event
// that produced it — a delivery to its send, a session form/abort to its
// attempt, a view install to the topology change that triggered it.
// Walking `cause` links back to an event with cause 0 yields the root
// cause of any effect (see dvtrace explain-abort).
//
// Determinism guarantee: events are recorded synchronously from the
// single-threaded simulator, ordered by the event queue; two runs with
// the same RNG seed record identical sequences (ids, clocks and causal
// links included), and the JSON export is byte-identical (see
// util/json.hpp).
//
// Memory: the sink is ring-buffered. Protocol/topology events are always
// recorded; per-message events are opt-in (set_messages_enabled) because
// long availability sweeps exchange millions of messages. Eviction never
// reuses ids, so causal links stay unambiguous (they may dangle — a
// chain walk reports the truncation instead of resolving wrongly).
// Subscribers see every recorded event, whatever the ring later evicts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/ids.hpp"
#include "util/json.hpp"
#include "util/process_set.hpp"

namespace dynvote::obs {

class Gauge;
class MetricsRegistry;

enum class TraceEventKind : std::uint8_t {
  kMessageSend,        // a = from, b = to, detail = payload type
  kMessageDrop,        // a = from, b = to, value = DropCause, detail = type
  kMessageDeliver,     // a = from, b = to, detail = payload type
  kTopologyChange,     // members = one component (one event per component)
  kProcessCrash,       // a = process
  kProcessRecover,     // a = process
  kViewInstalled,      // a = process, number = view id, members = view
  kSessionAttempt,     // a = process, number = session, members = attempt set
  kSessionFormed,      // a = process, number = session, members, value = rounds
  kSessionAbort,       // a = process, number = view id, members, detail = reason
  kPrimaryLost,        // a = process
  kAmbiguityRecord,    // a = process, value = #ambiguous sessions now recorded
  kAmbiguityResolved,  // a = process, number = session, members,
                       //   detail = the §5 rule that deleted the record
  kAmbiguityAdopted,   // a = process, number = session, members,
                       //   detail = the §5 rule that adopted the record
};

/// Why a message never reached its destination.
enum class DropCause : std::uint8_t {
  kFilter = 0,        // fault-injection drop filter at send time
  kDisconnected = 1,  // sender and receiver not connected at send time
  kLinkEpoch = 2,     // link was cut (or endpoint crashed) while in flight
};

[[nodiscard]] std::string_view to_string(TraceEventKind kind);
[[nodiscard]] std::string_view to_string(DropCause cause);

/// Inverse of to_string(TraceEventKind); throws JsonError on unknown
/// names (the parse-side failure mode of the trace schema).
[[nodiscard]] TraceEventKind trace_event_kind_from_string(std::string_view s);

/// One flat trace record. Field meaning depends on `kind` (see the enum
/// comments); unused fields keep their zero defaults and are omitted from
/// the JSON export.
struct TraceEvent {
  SimTime time = 0;
  TraceEventKind kind = TraceEventKind::kMessageSend;
  ProcessId a;
  ProcessId b;
  std::int64_t number = 0;
  std::uint64_t value = 0;
  ProcessSet members;
  std::string detail;
  /// Event id, assigned by TraceSink::record (1-based; 0 = unrecorded).
  std::uint64_t eid = 0;
  /// Lamport clock of the acting process at the event (0 for global
  /// events such as topology changes, which no single process performs).
  std::uint64_t lamport = 0;
  /// eid of the event that caused this one (0 = root cause / unlinked).
  std::uint64_t cause = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// One event in the compact trace.json schema: single-letter keys
/// (t, k, a, b, n, v, m, d, e, l, c), zero-valued fields omitted. Both
/// the trace exporters (harness/trace_replay) and flight-recorder
/// post-mortems serialize events through here, so every consumer parses
/// one format.
[[nodiscard]] JsonValue to_json(const TraceEvent& event);

/// Inverse of to_json(TraceEvent). Throws JsonError when a required
/// field (t, k, a, e) is missing.
[[nodiscard]] TraceEvent trace_event_from_json(const JsonValue& value);

/// One line of prose for `event`: "[time] #eid kind pP ...", with the
/// kind's fields, the Lamport clock and the causal parent. The narrative
/// of dvtrace timeline, the examples and the determinism tests.
[[nodiscard]] std::string describe(const TraceEvent& event);

/// Run-level context exported alongside the events so a trace file is
/// self-describing: replay needs the core set, Min_Quorum, and whether
/// the Theorem-1 ambiguity bound applies to the traced protocol.
struct TraceMeta {
  std::string protocol;
  std::uint32_t n = 0;
  std::size_t min_quorum = 0;
  std::uint64_t seed = 0;
  ProcessSet core;
  /// Theorem-1 bound on simultaneously recorded ambiguous sessions
  /// (n − Min_Quorum + 1); 0 disables the check (protocols that do not
  /// garbage-collect, or runs with dynamic membership).
  std::size_t ambiguity_bound = 0;
  /// Events evicted by the sink's ring bound before export. Nonzero means
  /// the event stream is a suffix of the execution; consumers must either
  /// reject the file or explicitly downgrade their verdicts (see
  /// check_trace's TruncationPolicy).
  std::uint64_t overwritten = 0;
  /// Sharded-fleet shape (0 = not a sharded trace). When set, replica
  /// ProcessIds are dense group-major (group = pid / group_size), which
  /// is what dvtrace's --group filter keys on. Omitted from the JSON
  /// export when zero, so single-group traces are byte-unchanged.
  std::uint32_t num_groups = 0;
  std::uint32_t group_size = 0;
};

/// Ring buffer of TraceEvents, plus the ordered list of subscribers that
/// see every one of them.
class TraceSink {
 public:
  /// `capacity` 0 means unbounded.
  explicit TraceSink(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Records `event`, assigning it the next event id. Returns the id, or
  /// 0 when the event was skipped (per-message events while disabled) —
  /// skipped events consume no id, so ids stay dense over recorded ones.
  std::uint64_t record(TraceEvent event);

  /// Per-message events (send/drop/deliver) are skipped unless enabled.
  void set_messages_enabled(bool enabled) noexcept { messages_ = enabled; }
  [[nodiscard]] bool messages_enabled() const noexcept { return messages_; }

  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Mirrors size/overwritten into the registry's "trace.events" /
  /// "trace.overwritten" gauges, so ring-buffer pressure is visible in
  /// bench JSON without touching the sink. Call once at wiring time; the
  /// registry must outlive the sink.
  void bind_metrics(MetricsRegistry& registry);

  /// Called with every event record() keeps, after it lands in the
  /// ring and has its id; message events skipped while disabled are not
  /// delivered. Subscribers run in subscription order and keep their own
  /// state: eviction from the ring never touches them. Whatever a
  /// subscriber captures must outlive the sink's last record().
  using Subscriber = std::function<void(const TraceEvent&)>;
  void subscribe(Subscriber subscriber) {
    subscribers_.push_back(std::move(subscriber));
  }

  void clear();

  [[nodiscard]] const std::deque<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  /// Events evicted by the ring bound since the last clear().
  [[nodiscard]] std::uint64_t overwritten() const noexcept {
    return overwritten_;
  }
  /// Id of the most recently recorded event (0 = none yet).
  [[nodiscard]] std::uint64_t last_eid() const noexcept { return next_eid_; }

 private:
  void update_gauges();

  std::size_t capacity_;
  bool messages_ = false;
  std::deque<TraceEvent> events_;
  std::uint64_t overwritten_ = 0;
  std::uint64_t next_eid_ = 0;
  Gauge* events_gauge_ = nullptr;
  Gauge* overwritten_gauge_ = nullptr;
  std::vector<Subscriber> subscribers_;
};

}  // namespace dynvote::obs
