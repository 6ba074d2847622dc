#include "harness/cluster.hpp"

#include "util/ensure.hpp"

namespace dynvote {

namespace {

DvConfig resolve_config(const ClusterOptions& options) {
  DvConfig config = options.config;
  if (config.core.empty()) config.core = ProcessSet::range(options.n);
  return config;
}

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : config_(resolve_config(options)),
      options_(std::move(options)),
      sim_(options_.sim),
      checker_(config_.core, seeds_initial_primary(options_.kind)),
      metrics_(sim_.metrics()) {
  sim_.trace().set_capacity(options_.trace_capacity);
  sim_.trace().set_messages_enabled(options_.trace_messages);
  sim_.trace().subscribe(
      [this](const obs::TraceEvent& event) { checker_.observe(event); });
  sim_.trace().subscribe(
      [this](const obs::TraceEvent& event) { metrics_.observe(event); });
  for (ProcessId p : config_.core) add_process(p);
  // The oracle must subscribe after nodes exist but before any topology
  // change, so every view reaches a registered node.
  oracle_ = std::make_unique<MembershipOracle>(sim_, options_.membership);
  install_fault_modes();
}

void Cluster::install_fault_modes() {
  if (options_.message_loss <= 0.0 && options_.formation_miss <= 0.0) return;
  ensure(!(options_.message_loss > 0.0 && options_.formation_miss > 0.0),
         "choose one built-in fault mode");
  loss_rng_ = std::make_unique<Rng>(sim_.rng().split());

  if (options_.message_loss > 0.0) {
    const double p_loss = options_.message_loss;
    Rng* rng = loss_rng_.get();
    sim_.network().set_drop_filter([rng, p_loss](const sim::Envelope& env) {
      if (env.from == env.to) return false;  // loopback is process-internal
      return rng->next_bool(p_loss);
    });
    return;
  }

  // formation_miss: on every topology change, each new component may get
  // one member that will miss the session's closing round.
  sim_.network().add_topology_observer([this] { on_topology_for_misses(); });
  sim_.network().set_drop_filter([this](const sim::Envelope& env) {
    if (env.from == env.to) return false;
    for (MissRule& rule : miss_rules_) {
      if (rule.remaining == 0) continue;
      if (rule.victim != env.to) continue;
      if (env.payload->type_name().find(rule.type_substr) ==
          std::string::npos) {
        continue;
      }
      --rule.remaining;
      return true;
    }
    return false;
  });
}

void Cluster::on_topology_for_misses() {
  // Keep the rule list from growing without bound.
  std::erase_if(miss_rules_, [](const MissRule& r) { return r.remaining == 0; });
  // The closing round of a session: the attempt broadcast for the
  // two-or-more-round protocols, the info exchange for the one-round
  // naive baseline.
  std::string closing = "dv.attempt";
  if (options_.kind == ProtocolKind::kNaiveDynamic) closing = "dv.info";
  if (options_.kind == ProtocolKind::kCentralized) closing = "dvc.commit";
  for (const ProcessSet& component : sim_.network().live_components()) {
    if (component.size() < 2) continue;
    if (!loss_rng_->next_bool(options_.formation_miss)) continue;
    const auto& members = component.members();
    const ProcessId victim =
        members[static_cast<std::size_t>(loss_rng_->next_below(members.size()))];
    const int copies = options_.kind == ProtocolKind::kCentralized
                           ? 1
                           : static_cast<int>(component.size() - 1);
    miss_rules_.push_back(MissRule{victim, closing, copies});
  }
}

void Cluster::add_process(ProcessId p) {
  sim_.add_node(make_protocol(options_.kind, sim_.transport(), p, config_));
  process_ids_.push_back(p);
}

obs::TraceMeta Cluster::trace_meta() const {
  obs::TraceMeta meta;
  meta.protocol = to_string(options_.kind);
  meta.n = static_cast<std::uint32_t>(config_.core.size());
  meta.min_quorum = config_.min_quorum;
  meta.seed = options_.sim.seed;
  meta.core = config_.core;
  // Theorem 1 bounds the simultaneously recorded ambiguous sessions of
  // the garbage-collecting protocol at n − Min_Quorum + 1; the basic
  // protocol keeps everything (section 4.7) and the section-6 dynamic
  // membership changes n itself, so no bound is claimed there.
  if (options_.kind == ProtocolKind::kOptimized &&
      !config_.dynamic_participants && config_.min_quorum <= meta.n) {
    meta.ambiguity_bound = meta.n - config_.min_quorum + 1;
  }
  return meta;
}

ProtocolNode& Cluster::protocol(ProcessId p) {
  auto* protocol = dynamic_cast<ProtocolNode*>(&sim_.node(p));
  ensure(protocol != nullptr, "node is not a protocol instance");
  return *protocol;
}

ProcessSet Cluster::primary_members() {
  ProcessSet out;
  for (ProcessId p : process_ids_) {
    if (sim_.network().alive(p) && protocol(p).is_primary()) out.insert(p);
  }
  return out;
}

std::optional<Session> Cluster::live_primary() {
  std::optional<Session> found;
  for (ProcessId p : process_ids_) {
    if (!sim_.network().alive(p)) continue;
    auto& proto = protocol(p);
    if (!proto.is_primary()) continue;
    const Session& session = *proto.primary_session();
    if (found && !(*found == session)) return std::nullopt;  // ambiguous
    found = session;
  }
  return found;
}

}  // namespace dynvote
