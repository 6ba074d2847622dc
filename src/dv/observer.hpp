// Per-node observation hook for protocol executions.
//
// Every protocol step is recorded in the TraceSink (obs/trace.hpp), and
// the library's consumers — the consistency checker, the dv.* metrics
// fold, the sharded fleet's router, the flight recorder — subscribe to
// that one stream. ProtocolObserver is the per-node hook for tools
// outside the library that stamp each step with wall-clock time as it
// happens (the runtime benches); a node holds at most one, installed
// with ProtocolNode::set_observer. Nothing in the library implements or
// fans it out. Either way the observation stays outside the protocol,
// so the measurement can't influence the measured (and the deliberately
// broken baselines run to completion so their inconsistencies can be
// counted).
#pragma once

#include <string>

#include "dv/session.hpp"
#include "membership/view.hpp"
#include "util/ids.hpp"

namespace dynvote {

class ProtocolObserver {
 public:
  virtual ~ProtocolObserver() = default;

  /// A process installed a membership view and started a session.
  virtual void on_view_installed(SimTime /*time*/, ProcessId /*p*/,
                                 const View& /*view*/) {}

  /// A process recorded the session in its attempt step.
  virtual void on_attempt(SimTime /*time*/, ProcessId /*p*/,
                          const Session& /*session*/) {}

  /// A process formed the session: it is now in the primary component.
  /// `rounds` is the number of communication rounds the session used.
  virtual void on_formed(SimTime /*time*/, ProcessId /*p*/,
                         const Session& /*session*/, int /*rounds*/) {}

  /// A process left the primary component (view change or crash).
  virtual void on_primary_lost(SimTime /*time*/, ProcessId /*p*/) {}

  /// A session was aborted: the view was not an eligible quorum (or a
  /// blocking baseline is stuck waiting for absent members — the reason
  /// string distinguishes the cases).
  virtual void on_session_rejected(SimTime /*time*/, ProcessId /*p*/,
                                   const View& /*view*/,
                                   const std::string& /*reason*/) {}
};

/// A per-process hook for applications built on the service: told when
/// its process enters/leaves the primary component.
class PrimaryListener {
 public:
  virtual ~PrimaryListener() = default;
  virtual void on_primary_formed(const Session& session) = 0;
  virtual void on_primary_lost() = 0;
};

}  // namespace dynvote
