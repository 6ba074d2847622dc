// ViewAnnouncer: the rule that turns a topology into membership views.
//
// The membership service (paper section 3.1) reports to the members of
// each connected component a view of that component. This type owns
// the part of the service that does not depend on how views travel:
//
//  * the view-id counter (ids start at 1 and never repeat);
//  * each process's latest announced view (kept across crashes);
//  * the rule "announce a fresh view for every live component where some
//    member's latest view differs".
//
// MembershipOracle (simulated, randomized delivery delays) and
// runtime::RuntimeFleet (wall-clock delivery through the pool) each hold
// one. Fed the same topology script, both therefore announce the same
// views with the same ids, which is what lets the DES act as the oracle
// for the wall-clock runtime (runtime/crosscheck.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "membership/view.hpp"
#include "util/ids.hpp"
#include "util/process_set.hpp"

namespace dynvote {

class ViewAnnouncer {
 public:
  /// Announces a fresh view for every component whose membership
  /// differs from some member's latest view (or that has a member with
  /// no view yet), and calls emit(view) for each, in component order.
  /// Components must be disjoint; pass them sorted by smallest member,
  /// since ids are handed out in that order.
  template <class Emit>
  void announce_changed(const std::vector<ProcessSet>& components,
                        Emit&& emit) {
    for (const ProcessSet& component : components) {
      if (!changed(component)) continue;
      const View view = announce(component);
      emit(view);
    }
  }

  /// Announces a view of `members` with the next id, unconditionally,
  /// and records it as each member's latest view.
  View announce(const ProcessSet& members);

  /// p's latest announced view, or nullptr before its first.
  [[nodiscard]] const View* latest(ProcessId p) const;

  /// Number of views announced so far.
  [[nodiscard]] std::uint64_t views_announced() const noexcept {
    return next_view_id_ - 1;
  }

 private:
  [[nodiscard]] bool changed(const ProcessSet& component) const;

  std::uint64_t next_view_id_ = 1;
  std::map<ProcessId, View> latest_;
};

}  // namespace dynvote
