#include "runtime/fleet.hpp"

#include <set>
#include <utility>

#include "util/ensure.hpp"

namespace dynvote::runtime {

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

RuntimeFleet::RuntimeFleet(FleetOptions options)
    : options_(std::move(options)), config_(options_.config) {
  std::vector<ProcessId> ids;
  if (config_.core.empty()) {
    ensure(options_.n > 0, "fleet needs at least one process");
    for (std::uint32_t i = 0; i < options_.n; ++i) {
      config_.core.insert(ProcessId(i));
    }
  }
  for (ProcessId p : config_.core) ids.push_back(p);

  transport_ = std::make_unique<PoolTransport>(ids, options_.workers,
                                               options_.runtime);
  nodes_.reserve(ids.size());
  for (ProcessId p : ids) {
    nodes_.push_back(make_protocol(options_.kind, *transport_, p, config_));
    transport_->set_node(nodes_.back().get());
  }
}

RuntimeFleet::~RuntimeFleet() { stop(); }

ProtocolNode& RuntimeFleet::protocol(ProcessId p) {
  const auto& ids = transport_->processes();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == p) return *nodes_[i];
  }
  ensure(false, "unknown fleet process " + to_string(p));
  return *nodes_.front();
}

void RuntimeFleet::start() {
  ensure(!started_, "one lifecycle per fleet");
  started_ = true;
  transport_->start();
  merge();
}

void RuntimeFleet::stop() { transport_->stop_and_join(); }

void RuntimeFleet::partition(const std::vector<ProcessSet>& groups) {
  transport_->set_components(groups);
  announce_and_quiesce();
}

void RuntimeFleet::merge() {
  transport_->merge_all();
  announce_and_quiesce();
}

void RuntimeFleet::crash(ProcessId p) {
  transport_->crash(p);
  announce_and_quiesce();
}

void RuntimeFleet::recover(ProcessId p) {
  transport_->recover(p);
  announce_and_quiesce();
}

void RuntimeFleet::announce_and_quiesce() {
  announcer_.announce_changed(
      transport_->live_components(),
      [this](const View& view) { transport_->post_view(view); });
  transport_->quiesce();
}

std::vector<ProcessProbe> RuntimeFleet::probe() {
  const auto& ids = transport_->processes();
  std::vector<ProcessProbe> probes(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ProcessProbe& slot = probes[i];
    slot.id = ids[i];
    slot.alive = transport_->alive(ids[i]);
    ProtocolNode* node = nodes_[i].get();
    // Reads run on the owning worker; quiesce() below is the barrier
    // that publishes them back to the controller.
    transport_->run_on(ids[i], [&slot, node] {
      slot.is_primary = node->is_primary();
      slot.primary = node->primary_session();
      slot.formed_count = node->formed_count();
    });
  }
  transport_->quiesce();
  return probes;
}

std::vector<obs::ThreadProbeLog> RuntimeFleet::probe_logs() {
  return transport_->snapshot_probe_logs();
}

std::size_t RuntimeFleet::distinct_primaries(
    const std::vector<ProcessProbe>& probes) {
  std::set<Session> sessions;
  for (const ProcessProbe& probe : probes) {
    if (probe.alive && probe.is_primary && probe.primary) {
      sessions.insert(*probe.primary);
    }
  }
  return sessions.size();
}

std::string RuntimeFleet::outcome_summary() {
  ensure(!transport_->running(),
         "outcome_summary requires a stopped fleet (stop() first)");
  std::string out;
  const auto& ids = transport_->processes();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out += to_string(ids[i]) + ":";
    for (const obs::TraceEvent& event : transport_->trace(ids[i]).events()) {
      switch (event.kind) {
        case obs::TraceEventKind::kViewInstalled:
          out += " V" + std::to_string(event.number) + "=" +
                 to_string(event.members);
          break;
        case obs::TraceEventKind::kSessionFormed:
          out += " F" + std::to_string(event.number) + "r" +
                 std::to_string(event.value) + "=" + to_string(event.members);
          break;
        default:
          break;
      }
    }
    const ProtocolNode& node = *nodes_[i];
    out += " | primary=" + to_string(node.primary_session()) +
           " formed=" + std::to_string(node.formed_count()) + "\n";
  }
  return out;
}

std::uint64_t RuntimeFleet::outcome_digest() {
  return fnv1a64(outcome_summary());
}

}  // namespace dynvote::runtime
