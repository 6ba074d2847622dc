#include "membership/membership_oracle.hpp"

namespace dynvote {

MembershipOracle::MembershipOracle(sim::Simulator& sim,
                                   MembershipOptions options)
    : sim_(sim), options_(options), rng_(sim.rng().split()) {
  sim_.network().add_topology_observer([this] { on_topology_changed(); });
}

void MembershipOracle::on_topology_changed() {
  announcer_.announce_changed(
      sim_.network().live_components(),
      [this](const View& view) { schedule_view(view); });
}

ViewId MembershipOracle::inject_view(const ProcessSet& members) {
  const View view = announcer_.announce(members);
  schedule_view(view);
  return view.id;
}

void MembershipOracle::schedule_view(const View& view) {
  for (ProcessId p : view.members) {
    const SimTime delay = options_.detection_delay_min +
                          rng_.next_below(options_.detection_delay_max -
                                          options_.detection_delay_min + 1);
    sim_.queue().schedule_after(delay, [this, p, view] {
      // Suppress if a newer view superseded this one for p, or if p is
      // down. (A crashed-and-recovered p gets fresh views from the
      // recovery's own topology change.)
      const View* latest = announcer_.latest(p);
      if (latest == nullptr || latest->id != view.id) return;
      if (!sim_.network().alive(p)) return;
      sim_.node(p).deliver_view(view);
    });
  }
}

}  // namespace dynvote
