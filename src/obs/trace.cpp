#include "obs/trace.hpp"

#include "obs/metrics.hpp"

namespace dynvote::obs {

std::string_view to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kMessageSend:
      return "send";
    case TraceEventKind::kMessageDrop:
      return "drop";
    case TraceEventKind::kMessageDeliver:
      return "deliver";
    case TraceEventKind::kTopologyChange:
      return "topology";
    case TraceEventKind::kProcessCrash:
      return "crash";
    case TraceEventKind::kProcessRecover:
      return "recover";
    case TraceEventKind::kViewInstalled:
      return "view";
    case TraceEventKind::kSessionAttempt:
      return "attempt";
    case TraceEventKind::kSessionFormed:
      return "formed";
    case TraceEventKind::kSessionAbort:
      return "abort";
    case TraceEventKind::kPrimaryLost:
      return "primary_lost";
    case TraceEventKind::kAmbiguityRecord:
      return "ambiguity";
    case TraceEventKind::kAmbiguityResolved:
      return "ambiguity_resolved";
    case TraceEventKind::kAmbiguityAdopted:
      return "ambiguity_adopted";
  }
  return "unknown";
}

std::string_view to_string(DropCause cause) {
  switch (cause) {
    case DropCause::kFilter:
      return "filter";
    case DropCause::kDisconnected:
      return "disconnected";
    case DropCause::kLinkEpoch:
      return "link_epoch";
  }
  return "unknown";
}

TraceEventKind trace_event_kind_from_string(std::string_view s) {
  using K = TraceEventKind;
  for (const K k :
       {K::kMessageSend, K::kMessageDrop, K::kMessageDeliver,
        K::kTopologyChange, K::kProcessCrash, K::kProcessRecover,
        K::kViewInstalled, K::kSessionAttempt, K::kSessionFormed,
        K::kSessionAbort, K::kPrimaryLost, K::kAmbiguityRecord,
        K::kAmbiguityResolved, K::kAmbiguityAdopted}) {
    if (to_string(k) == s) return k;
  }
  throw JsonError("trace: unknown event kind '" + std::string(s) + "'");
}

namespace {

JsonValue process_set_to_json(const ProcessSet& set) {
  JsonValue arr = JsonValue::array();
  arr.reserve(set.size());
  for (const ProcessId p : set) {
    arr.push_back(JsonValue(static_cast<std::uint64_t>(p.value())));
  }
  return arr;
}

ProcessSet process_set_from_json(const JsonValue& value) {
  std::vector<ProcessId> members;
  members.reserve(value.as_array().size());
  for (const JsonValue& entry : value.as_array()) {
    members.emplace_back(static_cast<std::uint32_t>(entry.as_uint()));
  }
  return ProcessSet(std::move(members));
}

}  // namespace

JsonValue to_json(const TraceEvent& event) {
  JsonValue e = JsonValue::object();
  e.reserve(10);  // t k a e + up to 7 optional fields, most absent
  e.set("t", JsonValue(event.time));
  e.set("k", JsonValue(to_string(event.kind)));
  e.set("a", JsonValue(static_cast<std::uint64_t>(event.a.value())));
  // Zero-valued fields are omitted: they are the defaults the loader
  // restores, and dropping them keeps big traces compact.
  if (event.b != ProcessId{}) {
    e.set("b", JsonValue(static_cast<std::uint64_t>(event.b.value())));
  }
  if (event.number != 0) e.set("n", JsonValue(event.number));
  if (event.value != 0) e.set("v", JsonValue(event.value));
  if (!event.members.empty()) e.set("m", process_set_to_json(event.members));
  if (!event.detail.empty()) e.set("d", JsonValue(event.detail));
  // Causal fields. "e" is always present (every recorded event has an
  // id); the clock and cause keep the zero-omitted convention.
  e.set("e", JsonValue(event.eid));
  if (event.lamport != 0) e.set("l", JsonValue(event.lamport));
  if (event.cause != 0) e.set("c", JsonValue(event.cause));
  return e;
}

TraceEvent trace_event_from_json(const JsonValue& value) {
  TraceEvent event;
  // One pass over the object instead of a find() per field: every key
  // is a single character, and a big trace has thousands of events.
  bool has_t = false, has_k = false, has_a = false, has_e = false;
  for (const auto& [key, field] : value.as_object()) {
    if (key.size() != 1) continue;
    switch (key[0]) {
      case 't': event.time = field.as_uint(); has_t = true; break;
      case 'k':
        event.kind = trace_event_kind_from_string(field.as_string());
        has_k = true;
        break;
      case 'a':
        event.a = ProcessId(static_cast<std::uint32_t>(field.as_uint()));
        has_a = true;
        break;
      case 'b':
        event.b = ProcessId(static_cast<std::uint32_t>(field.as_uint()));
        break;
      case 'n': event.number = field.as_int(); break;
      case 'v': event.value = field.as_uint(); break;
      case 'm': event.members = process_set_from_json(field); break;
      case 'd': event.detail = field.as_string(); break;
      case 'e': event.eid = field.as_uint(); has_e = true; break;
      case 'l': event.lamport = field.as_uint(); break;
      case 'c': event.cause = field.as_uint(); break;
      default: break;
    }
  }
  if (!has_t || !has_k || !has_a || !has_e) {
    throw JsonError("trace: event record is missing t, k, a, or e");
  }
  return event;
}

std::string describe(const TraceEvent& e) {
  std::string out = "[" + std::to_string(e.time) + "us] #" +
                    std::to_string(e.eid) + " " +
                    std::string(to_string(e.kind)) + " p" +
                    std::to_string(e.a.value());
  switch (e.kind) {
    case TraceEventKind::kMessageSend:
    case TraceEventKind::kMessageDeliver:
    case TraceEventKind::kMessageDrop:
      out += "->p" + std::to_string(e.b.value());
      if (e.kind == TraceEventKind::kMessageDrop) {
        out += " (" + std::string(to_string(static_cast<DropCause>(e.value))) +
               ")";
      }
      if (!e.detail.empty()) out += " " + e.detail;
      break;
    case TraceEventKind::kTopologyChange:
      out = "[" + std::to_string(e.time) + "us] #" + std::to_string(e.eid) +
            " topology " + e.members.to_string();
      break;
    case TraceEventKind::kViewInstalled:
      out += " view " + std::to_string(e.number) + " " + e.members.to_string();
      break;
    case TraceEventKind::kSessionAttempt:
    case TraceEventKind::kSessionFormed:
    case TraceEventKind::kAmbiguityResolved:
    case TraceEventKind::kAmbiguityAdopted:
      out += " session " + std::to_string(e.number) + " " +
             e.members.to_string();
      if (e.kind == TraceEventKind::kSessionFormed) {
        out += " after " + std::to_string(e.value) + " rounds";
      }
      if (!e.detail.empty()) out += " [" + e.detail + "]";
      break;
    case TraceEventKind::kSessionAbort:
      out += " view " + std::to_string(e.number) + " " + e.members.to_string() +
             ": " + e.detail;
      break;
    case TraceEventKind::kAmbiguityRecord:
      out += " level=" + std::to_string(e.value);
      break;
    default:
      break;
  }
  if (e.lamport != 0) out += " (L=" + std::to_string(e.lamport) + ")";
  if (e.cause != 0) out += " <- #" + std::to_string(e.cause);
  return out;
}

std::uint64_t TraceSink::record(TraceEvent event) {
  switch (event.kind) {
    case TraceEventKind::kMessageSend:
    case TraceEventKind::kMessageDrop:
    case TraceEventKind::kMessageDeliver:
      if (!messages_) return 0;
      break;
    default:
      break;
  }
  if (capacity_ != 0 && events_.size() >= capacity_) {
    events_.pop_front();
    ++overwritten_;
  }
  event.eid = ++next_eid_;
  events_.push_back(std::move(event));
  update_gauges();
  for (const Subscriber& subscriber : subscribers_) subscriber(events_.back());
  return next_eid_;
}

void TraceSink::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  if (capacity_ != 0) {
    while (events_.size() > capacity_) {
      events_.pop_front();
      ++overwritten_;
    }
  }
  update_gauges();
}

void TraceSink::bind_metrics(MetricsRegistry& registry) {
  events_gauge_ = &registry.gauge("trace.events");
  overwritten_gauge_ = &registry.gauge("trace.overwritten");
  update_gauges();
}

void TraceSink::update_gauges() {
  if (events_gauge_ == nullptr) return;
  events_gauge_->set(static_cast<std::int64_t>(events_.size()));
  overwritten_gauge_->set(static_cast<std::int64_t>(overwritten_));
}

void TraceSink::clear() {
  events_.clear();
  overwritten_ = 0;
  next_eid_ = 0;
  update_gauges();
}

}  // namespace dynvote::obs
