#include "runtime/checkpoint.h"

#include <algorithm>

#include "support/check.h"

namespace rbx {

void CheckpointStore::save(Snapshot snapshot) {
  RBX_CHECK_MSG(snapshots_.empty() ||
                    snapshot.ticket >= snapshots_.back().ticket,
                "snapshots must be recorded in ticket order");
  snapshots_.push_back(std::move(snapshot));
}

const Snapshot* CheckpointStore::latest_rp() const {
  for (auto it = snapshots_.rbegin(); it != snapshots_.rend(); ++it) {
    if (it->kind == SnapshotKind::kRecoveryPoint) {
      return &*it;
    }
  }
  return nullptr;
}

const Snapshot* CheckpointStore::rp_before(std::uint64_t ticket) const {
  for (auto it = snapshots_.rbegin(); it != snapshots_.rend(); ++it) {
    if (it->kind == SnapshotKind::kRecoveryPoint && it->ticket < ticket) {
      return &*it;
    }
  }
  return nullptr;
}

const Snapshot* CheckpointStore::prp_for(ProcessId owner,
                                         std::uint64_t seq) const {
  for (auto it = snapshots_.rbegin(); it != snapshots_.rend(); ++it) {
    if (it->kind == SnapshotKind::kPseudoRecoveryPoint &&
        it->rp_owner == owner && it->rp_seq == seq) {
      return &*it;
    }
  }
  return nullptr;
}

const Snapshot* CheckpointStore::by_ticket(std::uint64_t ticket) const {
  for (auto it = snapshots_.rbegin(); it != snapshots_.rend(); ++it) {
    if (it->ticket == ticket) {
      return &*it;
    }
  }
  return nullptr;
}

std::size_t CheckpointStore::purge() {
  // Keep the two newest own RPs and, per foreign owner, the two newest
  // PRPs, one per RP of the owner.  (The paper purges down to the newest
  // pseudo recovery lines; one generation of slack is kept because a
  // failure detected at the very next acceptance test may need to step
  // past the newest RP - the Section 4 pointer loop occasionally reaches
  // the previous line.)  One snapshot per PRP: a rollback that restores an
  // inbox still holding an implant request replays it, so the same RP can
  // be implanted twice, and only the newest copy is reachable (the
  // rollback planner restores the newest PRP of an RP).
  constexpr std::size_t kGenerations = 2;
  std::vector<bool> keep(snapshots_.size(), false);
  std::size_t rps_kept = 0;
  std::vector<std::pair<ProcessId, std::uint64_t>> kept_prp_keys;
  for (std::size_t i = snapshots_.size(); i-- > 0;) {
    const Snapshot& s = snapshots_[i];
    if (s.kind == SnapshotKind::kRecoveryPoint) {
      if (rps_kept < kGenerations) {
        keep[i] = true;
        ++rps_kept;
      }
      continue;
    }
    std::size_t owner_kept = 0;
    bool newer_copy = false;
    for (const auto& key : kept_prp_keys) {
      if (key.first == s.rp_owner) {
        ++owner_kept;
        newer_copy = newer_copy || key.second == s.rp_seq;
      }
    }
    if (!newer_copy && owner_kept < kGenerations) {
      kept_prp_keys.push_back({s.rp_owner, s.rp_seq});
      keep[i] = true;
    }
  }

  const std::size_t before = snapshots_.size();
  std::vector<Snapshot> kept;
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    if (keep[i]) {
      kept.push_back(std::move(snapshots_[i]));
    }
  }
  snapshots_ = std::move(kept);
  return before - snapshots_.size();
}

std::size_t CheckpointStore::total_bytes() const {
  std::size_t bytes = 0;
  for (const Snapshot& s : snapshots_) {
    bytes += s.state.size() + s.retained_inbox.size() * sizeof(Message);
  }
  return bytes;
}

}  // namespace rbx
