// Membership oracle.
//
// Implements the membership service the paper assumes (section 3.1):
// it watches network connectivity and reports views to processes. The
// guarantees deliberately match the paper's weak requirements and nothing
// more:
//
//  * views are NOT delivered atomically: each member learns of a view
//    after its own randomized detection delay;
//  * views may be skipped entirely under churn (a member that detects a
//    change late may jump straight to the newest view);
//  * the reports need not reflect the true network at delivery time;
//  * but if a component stays stable, all its members eventually receive
//    the same (final) view and no other.
//
// Causal ordering of views versus protocol messages (the section 3.1
// requirement) is realized by the Node layer's view-tagged delivery.
//
// For liveness testing, inject_view() lets tests deliver arbitrary
// (inaccurate) views; the protocol must stay correct regardless.
#pragma once

#include <cstdint>

#include "membership/view.hpp"
#include "membership/view_announcer.hpp"
#include "sim/simulator.hpp"
#include "util/ids.hpp"
#include "util/process_set.hpp"

namespace dynvote {

struct MembershipOptions {
  /// Failure/recovery detection latency range, sampled independently per
  /// member per view — this is what makes view delivery non-atomic.
  SimTime detection_delay_min = 200;
  SimTime detection_delay_max = 800;
};

class MembershipOracle {
 public:
  /// Subscribes to the simulator's network. Register all nodes first.
  explicit MembershipOracle(sim::Simulator& sim, MembershipOptions options = {});

  MembershipOracle(const MembershipOracle&) = delete;
  MembershipOracle& operator=(const MembershipOracle&) = delete;

  /// Delivers a view with the given membership to all its members,
  /// bypassing the network watcher. Intended for tests that exercise the
  /// protocol under inaccurate membership reports.
  ViewId inject_view(const ProcessSet& members);

  /// Number of views generated so far.
  [[nodiscard]] std::uint64_t views_generated() const noexcept {
    return announcer_.views_announced();
  }

 private:
  void on_topology_changed();
  void schedule_view(const View& view);

  sim::Simulator& sim_;
  MembershipOptions options_;
  Rng rng_;
  /// View ids and each process's newest announced view; an older
  /// scheduled delivery that fires after a newer view was announced is
  /// suppressed (the member "skips" the superseded view).
  ViewAnnouncer announcer_;
};

}  // namespace dynvote
