#include "dv/service.hpp"

#include "baselines/blocking_dynamic.hpp"
#include "baselines/hybrid_jm.hpp"
#include "baselines/last_attempt_only.hpp"
#include "baselines/naive_dynamic.hpp"
#include "baselines/static_majority.hpp"
#include "baselines/three_phase_recovery.hpp"
#include "dv/centralized_protocol.hpp"
#include "dv/optimized_protocol.hpp"
#include "util/ensure.hpp"

namespace dynvote {

const char* to_string(ProtocolKind kind) noexcept {
  switch (kind) {
    case ProtocolKind::kBasic: return "dv-basic";
    case ProtocolKind::kOptimized: return "dv-optimized";
    case ProtocolKind::kCentralized: return "dv-centralized";
    case ProtocolKind::kStaticMajority: return "static-majority";
    case ProtocolKind::kNaiveDynamic: return "naive-dynamic";
    case ProtocolKind::kLastAttemptOnly: return "last-attempt-only";
    case ProtocolKind::kBlockingDynamic: return "blocking-dynamic";
    case ProtocolKind::kHybridJm: return "hybrid-jm";
    case ProtocolKind::kThreePhaseRecovery: return "3phase-recovery";
  }
  return "?";
}

const std::vector<ProtocolKind>& all_protocol_kinds() {
  static const std::vector<ProtocolKind> kinds = {
      ProtocolKind::kBasic,
      ProtocolKind::kOptimized,
      ProtocolKind::kCentralized,
      ProtocolKind::kStaticMajority,
      ProtocolKind::kNaiveDynamic,
      ProtocolKind::kLastAttemptOnly,
      ProtocolKind::kBlockingDynamic,
      ProtocolKind::kHybridJm,
      ProtocolKind::kThreePhaseRecovery,
  };
  return kinds;
}

bool is_consistent_protocol(ProtocolKind kind) noexcept {
  return kind != ProtocolKind::kNaiveDynamic &&
         kind != ProtocolKind::kLastAttemptOnly;
}

bool seeds_initial_primary(ProtocolKind kind) noexcept {
  return kind != ProtocolKind::kStaticMajority;
}

std::unique_ptr<ProtocolNode> make_protocol(ProtocolKind kind,
                                            sim::Transport& transport,
                                            ProcessId id, DvConfig config) {
  switch (kind) {
    case ProtocolKind::kBasic:
      return std::make_unique<BasicDvProtocol>(transport, id,
                                               std::move(config));
    case ProtocolKind::kOptimized:
      return std::make_unique<OptimizedDvProtocol>(transport, id,
                                                   std::move(config));
    case ProtocolKind::kCentralized:
      return std::make_unique<CentralizedDvProtocol>(transport, id,
                                                     std::move(config));
    case ProtocolKind::kStaticMajority:
      return std::make_unique<StaticMajorityProtocol>(
          transport, id, StaticMajorityConfig{config.core, false});
    case ProtocolKind::kNaiveDynamic:
      return std::make_unique<NaiveDynamicProtocol>(transport, id, std::move(config));
    case ProtocolKind::kLastAttemptOnly:
      return std::make_unique<LastAttemptOnlyProtocol>(transport, id,
                                                       std::move(config));
    case ProtocolKind::kBlockingDynamic:
      return std::make_unique<BlockingDynamicProtocol>(transport, id,
                                                       std::move(config));
    case ProtocolKind::kHybridJm:
      return std::make_unique<HybridJmProtocol>(transport, id,
                                                  std::move(config));
    case ProtocolKind::kThreePhaseRecovery:
      return std::make_unique<ThreePhaseRecoveryProtocol>(transport, id,
                                                          std::move(config));
  }
  ensure(false, "unknown protocol kind");
  return nullptr;
}

}  // namespace dynvote
