#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <typeinfo>

#include "dv/basic_protocol.hpp"
#include "dv/wal.hpp"
#include "quorum/sub_quorum.hpp"
#include "sim/stable_storage.hpp"
#include "util/codec.hpp"

namespace perfbench {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

std::uint64_t fnv_fold(std::uint64_t hash, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xFF;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// ---- Report -----------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0;
  }
  metrics_[name] = Entry{value, unit, samples};
}

void Report::fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

void Report::print() const {
  for (const auto& [name, entry] : metrics_) {
    if (entry.samples > 0) {
      std::printf("%-40s %16.6f %-6s (n=%zu)\n", name.c_str(), entry.value,
                  entry.unit.c_str(), entry.samples);
    } else {
      std::printf("%-40s %16.6f %s\n", name.c_str(), entry.value,
                  entry.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, entry] : metrics_) {
    std::snprintf(number, sizeof number, "%.17g", entry.value);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
            entry.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- Recorder ---------------------------------------------------------

namespace {

std::uint64_t fold_members(std::uint64_t hash, const ProcessSet& members) {
  hash = fnv_fold(hash, members.size());
  for (ProcessId p : members) hash = fnv_fold(hash, p.value());
  return hash;
}

}  // namespace

Recorder::Recorder(std::size_t n, std::function<std::uint64_t()> clock)
    : logs(n), clock_(std::move(clock)) {}

void Recorder::on_view_installed(SimTime, ProcessId p, const View& view) {
  ProcessLog& log = logs[p.value()];
  log.view_ns = clock_();
  ++log.views;
  log.last_view = view.members;
  log.transcript = fold_members(fnv_fold(log.transcript, 'V'), view.members);
  log.transcript = fnv_fold(log.transcript, view.id.value());
}

void Recorder::on_attempt(SimTime, ProcessId p, const Session&) {
  ProcessLog& log = logs[p.value()];
  log.attempt_ns = clock_();
  ++log.attempts;
}

void Recorder::on_formed(SimTime time, ProcessId p, const Session& session,
                         int rounds) {
  ProcessLog& log = logs[p.value()];
  log.formed_ns = clock_();
  log.formed_time = time;
  if (!session.members.empty() && *session.members.begin() == p) ++log.led;
  log.primary = true;
  log.session = session;
  log.transcript = fold_members(fnv_fold(log.transcript, 'F'), session.members);
  log.transcript = fnv_fold(fnv_fold(log.transcript, session.number),
                            static_cast<std::uint64_t>(rounds));
}

void Recorder::on_primary_lost(SimTime, ProcessId p) {
  logs[p.value()].primary = false;
}

void Recorder::on_session_rejected(SimTime, ProcessId p, const View&,
                                   const std::string&) {
  ++logs[p.value()].rejections;
}

// ---- state-layer timings ----------------------------------------------

const ProtocolState& state_of(ProtocolNode& node) {
  auto* basic = dynamic_cast<BasicDvProtocol*>(&node);
  if (basic == nullptr) throw std::bad_cast();
  return basic->state();
}

namespace {

/// Results of timed calls land here so the calls cannot be elided.
volatile bool g_sink = false;

/// Mean per-call microseconds of `fn` over `reps` calls, timed as one
/// batch so calls shorter than the clock's resolution still register.
template <class Fn>
double batch_us(int reps, Fn&& fn) {
  const std::uint64_t t0 = steady_ns();
  for (int i = 0; i < reps; ++i) fn();
  return static_cast<double>(steady_ns() - t0) / 1e3 / reps;
}

}  // namespace

StateLayers time_state_layers(const std::vector<CapturedState>& states,
                              std::size_t max_states) {
  StateLayers out;
  if (states.empty()) return out;
  const std::size_t count = std::min(max_states, states.size());
  std::vector<double> encode, decode, checkpoint, recover, audit, sub_quorum;
  double bytes = 0;
  double entries = 0;
  constexpr int kReps = 8;
  for (std::size_t k = 0; k < count; ++k) {
    const CapturedState& captured = states[k * states.size() / count];
    const ProtocolState& state = captured.state;

    Encoder enc;
    encode.push_back(batch_us(kReps, [&] {
      enc.clear();
      state.encode(enc);
    }));
    bytes += static_cast<double>(enc.size());
    entries += static_cast<double>(state.last_formed.size());
    const std::vector<std::uint8_t> encoded = enc.bytes();
    {
      Decoder dec(encoded);
      if (ProtocolState::decode(dec) != state) {
        throw std::runtime_error("decode does not reproduce the state");
      }
    }
    decode.push_back(batch_us(kReps, [&] {
      Decoder dec(encoded);
      g_sink = ProtocolState::decode(dec).has_history;
    }));

    PersistenceOptions fast;
    fast.cross_check = false;
    sim::StableStorage storage;
    WalPersistence wal(storage, nullptr, "dv", captured.self, fast);
    checkpoint.push_back(batch_us(kReps, [&] { wal.checkpoint(state); }));
    if (wal.recover() != std::optional<ProtocolState>(state)) {
      throw std::runtime_error("WAL recovery does not reproduce the state");
    }
    recover.push_back(
        batch_us(kReps, [&] { g_sink = wal.recover().has_value(); }));

    PersistenceOptions audited;
    audited.cross_check = true;
    sim::StableStorage audited_storage;
    WalPersistence audited_wal(audited_storage, nullptr, "dv", captured.self,
                               audited);
    const double with_audit =
        batch_us(kReps, [&] { audited_wal.checkpoint(state); });
    audit.push_back(std::max(0.0, with_audit - checkpoint.back()));

    const QuorumCalculus calc(captured.core, 1);
    const std::optional<ProcessSet> last =
        state.last_primary ? std::optional<ProcessSet>(
                                 state.last_primary->members)
                           : std::nullopt;
    constexpr int kQuorumReps = 256;
    sub_quorum.push_back(1e3 * batch_us(kQuorumReps, [&] {
                           g_sink = calc.sub_quorum(last, captured.view);
                         }));
  }
  out.state_bytes = bytes / static_cast<double>(count);
  out.last_formed_entries = entries / static_cast<double>(count);
  out.encode_us = median(encode);
  out.decode_us = median(decode);
  out.checkpoint_us = median(checkpoint);
  out.recover_us = median(recover);
  out.audit_us = median(audit);
  out.sub_quorum_ns = median(sub_quorum);
  return out;
}

}  // namespace perfbench
