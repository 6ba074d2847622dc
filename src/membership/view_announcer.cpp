#include "membership/view_announcer.hpp"

namespace dynvote {

View ViewAnnouncer::announce(const ProcessSet& members) {
  View view{ViewId(next_view_id_++), members};
  for (ProcessId p : members) latest_[p] = view;
  return view;
}

const View* ViewAnnouncer::latest(ProcessId p) const {
  const auto it = latest_.find(p);
  return it == latest_.end() ? nullptr : &it->second;
}

bool ViewAnnouncer::changed(const ProcessSet& component) const {
  for (ProcessId p : component) {
    const View* view = latest(p);
    if (view == nullptr || view->members != component) return true;
  }
  return false;
}

}  // namespace dynvote
