#include "trace/history.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.h"

namespace rbx {

namespace {

// The index std::partition_point(times, before) returns, for a `before`
// that holds on a prefix of the sorted `times`, found by galloping back
// from the newest entry: probes at distances 1, 2, 4, ... from the end
// until one satisfies `before`, then a bisection of the bracket between
// that probe and the previous one.
template <class Before>
std::size_t partition_from_back(const std::vector<double>& times,
                                Before before) {
  const auto begin = times.begin();
  std::size_t hi = times.size();  // every entry at or past hi fails `before`
  for (std::size_t step = 1; hi > 0; step *= 2) {
    const std::size_t probe = hi > step ? hi - step : 0;
    if (before(times[probe])) {
      return static_cast<std::size_t>(
          std::partition_point(begin + probe + 1, begin + hi, before) - begin);
    }
    hi = probe;
  }
  return 0;
}

// std::upper_bound(times, time): entries x with !(time < x) come first.
std::size_t upper_bound_from_back(const std::vector<double>& times,
                                  double time) {
  return partition_from_back(times, [time](double x) { return !(time < x); });
}

// std::lower_bound(times, time): entries x with x < time come first.
std::size_t lower_bound_from_back(const std::vector<double>& times,
                                  double time) {
  return partition_from_back(times, [time](double x) { return x < time; });
}

}  // namespace

double RecoveryLine::min_time() const {
  RBX_CHECK(!points.empty());
  double best = points[0].time;
  for (const auto& p : points) {
    best = std::min(best, p.time);
  }
  return best;
}

double RecoveryLine::max_time() const {
  RBX_CHECK(!points.empty());
  double best = points[0].time;
  for (const auto& p : points) {
    best = std::max(best, p.time);
  }
  return best;
}

History::History(std::size_t num_processes)
    : n_(num_processes), rp_times_(num_processes),
      pair_interactions_(num_processes * (num_processes + 1) / 2),
      prps_(num_processes), line_times_(num_processes) {
  RBX_CHECK(num_processes >= 1);
}

std::size_t History::pair_index(ProcessId a, ProcessId b) const {
  RBX_CHECK(a < n_ && b < n_ && a != b);
  if (a > b) {
    std::swap(a, b);
  }
  // Triangular index over unordered pairs.
  return a * n_ - a * (a + 1) / 2 + (b - a - 1);
}

void History::add_recovery_point(ProcessId p, double time) {
  RBX_CHECK(p < n_);
  RBX_CHECK_MSG(time >= last_time_, "events must be time-ordered");
  last_time_ = time;
  rp_times_[p].push_back(time);
}

void History::add_pseudo_recovery_point(ProcessId p, double time,
                                        ProcessId owner,
                                        std::size_t owner_rp_seq) {
  RBX_CHECK(p < n_ && owner < n_ && p != owner);
  RBX_CHECK_MSG(time >= last_time_, "events must be time-ordered");
  last_time_ = time;
  prps_[p].push_back({owner, owner_rp_seq, time});
}

void History::add_pseudo_recovery_line(ProcessId owner, double time,
                                       std::size_t owner_rp_seq) {
  RBX_CHECK(owner < n_);
  RBX_CHECK_MSG(time >= last_time_, "events must be time-ordered");
  std::vector<double>& times = line_times_[owner];
  RBX_CHECK_MSG(owner_rp_seq >= 1 && owner_rp_seq == rp_times_[owner].size(),
                "a pseudo recovery line follows its owner's newest RP");
  RBX_CHECK_MSG(times.size() < owner_rp_seq, "one line per RP");
  if (n_ == 1) {
    return;
  }
  last_time_ = time;
  times.resize(owner_rp_seq - 1, std::numeric_limits<double>::quiet_NaN());
  times.push_back(time);
  line_owners_.push_back(owner);
}

void History::add_interaction(ProcessId a, ProcessId b, double time) {
  RBX_CHECK_MSG(time >= last_time_, "events must be time-ordered");
  last_time_ = time;
  pair_interactions_[pair_index(a, b)].push_back(time);
}

std::vector<TraceEvent> History::events() const {
  std::vector<TraceEvent> out;
  for (ProcessId p = 0; p < n_; ++p) {
    const auto& times = rp_times_[p];
    for (std::size_t i = 0; i < times.size(); ++i) {
      out.push_back({EventKind::kRecoveryPoint, times[i], p, p, i + 1});
    }
  }
  for (ProcessId p = 0; p < n_; ++p) {
    // Walks the lines in append order; next[o] is the index into
    // line_times_[o] of owner o's next line, past the NaN of RPs with none.
    std::vector<std::size_t> next(n_, 0);
    for (const ProcessId owner : line_owners_) {
      const std::vector<double>& times = line_times_[owner];
      std::size_t& i = next[owner];
      while (std::isnan(times[i])) {
        ++i;
      }
      if (owner != p) {
        out.push_back(
            {EventKind::kPseudoRecoveryPoint, times[i], p, owner, i + 1});
      }
      ++i;
    }
    for (const PrpRecord& r : prps_[p]) {
      out.push_back({EventKind::kPseudoRecoveryPoint, r.time, p, r.owner,
                     r.owner_rp_seq});
    }
  }
  for (ProcessId a = 0; a < n_; ++a) {
    for (ProcessId b = a + 1; b < n_; ++b) {
      for (const double t : pair_interactions_[pair_index(a, b)]) {
        out.push_back({EventKind::kInteraction, t, a, b, 0});
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.time < y.time;
                   });
  return out;
}

const std::vector<double>& History::rp_times(ProcessId p) const {
  RBX_CHECK(p < n_);
  return rp_times_[p];
}

std::size_t History::rp_count(ProcessId p) const {
  RBX_CHECK(p < n_);
  return rp_times_[p].size();
}

std::optional<RestartPoint> History::latest_rp_at_or_before(
    ProcessId p, double time) const {
  RBX_CHECK(p < n_);
  const auto& times = rp_times_[p];
  const std::size_t end = upper_bound_from_back(times, time);
  if (end == 0) {
    return std::nullopt;
  }
  return RestartPoint{times[end - 1], false, false, end};
}

std::optional<RestartPoint> History::latest_rp_before(ProcessId p,
                                                      double time) const {
  RBX_CHECK(p < n_);
  const auto& times = rp_times_[p];
  const std::size_t end = lower_bound_from_back(times, time);
  if (end == 0) {
    return std::nullopt;
  }
  return RestartPoint{times[end - 1], false, false, end};
}

std::optional<RestartPoint> History::prp_for(ProcessId p, ProcessId owner,
                                             std::size_t owner_rp_seq) const {
  RBX_CHECK(p < n_);
  if (p != owner && owner < n_) {
    const std::vector<double>& times = line_times_[owner];
    if (owner_rp_seq >= 1 && owner_rp_seq <= times.size() &&
        !std::isnan(times[owner_rp_seq - 1])) {
      return RestartPoint{times[owner_rp_seq - 1], false, true, owner_rp_seq};
    }
  }
  // p's own list is never purged, but the planner asks about the pointer's
  // recent RPs, whose PRPs sit near the back; scanning from the back finds
  // them after a few entries, and the newest match first.
  const auto& list = prps_[p];
  for (auto it = list.rbegin(); it != list.rend(); ++it) {
    if (it->owner == owner && it->owner_rp_seq == owner_rp_seq) {
      return RestartPoint{it->time, false, true, owner_rp_seq};
    }
  }
  return std::nullopt;
}

const std::vector<double>& History::interaction_times(ProcessId a,
                                                      ProcessId b) const {
  return pair_interactions_[pair_index(a, b)];
}

bool History::has_interaction_in(ProcessId a, ProcessId b, double lo,
                                 double hi) const {
  return first_interaction_in(a, b, lo, hi).has_value();
}

std::optional<double> History::first_interaction_in(ProcessId a, ProcessId b,
                                                    double lo,
                                                    double hi) const {
  if (lo > hi) {
    std::swap(lo, hi);
  }
  const auto& times = pair_interactions_[pair_index(a, b)];
  const std::size_t first = lower_bound_from_back(times, lo);
  if (first == times.size() || times[first] > hi) {
    return std::nullopt;
  }
  return times[first];
}

}  // namespace rbx
