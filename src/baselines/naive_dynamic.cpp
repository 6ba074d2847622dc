#include "baselines/naive_dynamic.hpp"

#include "sim/simulator.hpp"
#include "sim/stable_storage.hpp"
#include "util/ensure.hpp"

namespace dynvote {

namespace {
constexpr const char* kStateKey = "naive.state";
}  // namespace

NaiveDynamicProtocol::NaiveDynamicProtocol(sim::Transport& transport,
                                           ProcessId id, DvConfig config)
    : SessionProtocolBase(transport, id, /*max_phases=*/1),
      state_(ProtocolState::initial(config.core, id)),
      config_(std::move(config)),
      state_key_(storage().intern(kStateKey)) {
  persist();
}

NaiveDynamicProtocol::NaiveDynamicProtocol(sim::Simulator& sim, ProcessId id,
                                           DvConfig config)
    : NaiveDynamicProtocol(sim.transport(), id, std::move(config)) {}

void NaiveDynamicProtocol::persist() {
  Encoder& enc = scratch_encoder();
  state_.encode(enc);
  storage().put(state_key_, enc.bytes().data(), enc.size());
}

void NaiveDynamicProtocol::handle_recover() {
  if (const std::vector<std::uint8_t>* bytes = storage().value(state_key_)) {
    Decoder dec(*bytes);
    state_ = ProtocolState::decode(dec);
  } else {
    state_ = ProtocolState::after_disk_loss(id());
    persist();
  }
}

void NaiveDynamicProtocol::begin_session(const View& view) {
  (void)view;
  auto info = std::make_shared<InfoPayload>();
  info->session_number = state_.session_number;
  info->has_history = state_.has_history;
  info->last_primary = state_.last_primary;
  // No ambiguous sessions — that is the point of this baseline.
  send_phase(0, std::move(info));
}

void NaiveDynamicProtocol::on_phase_complete(int phase,
                                             const PhaseMessages& messages) {
  ensure(phase == 0, "naive protocol has a single phase");
  const ProcessSet& M = session_view().members;
  const StepAggregates agg = aggregate_step1(as_infos(messages));
  const QuorumCalculus calc(config_.core, config_.min_quorum);
  const Eligibility verdict = evaluate_eligibility(calc, agg, M);
  if (!verdict.eligible) {
    abort_session(verdict.reason);
    return;
  }
  // Install immediately: no attempt round, no durable trace for members
  // that detach before this point.
  state_.session_number = agg.max_session + 1;
  const Session session{M, state_.session_number};
  state_.apply_form(session);
  persist();
  mark_primary(session);
}

}  // namespace dynvote
