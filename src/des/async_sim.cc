#include "des/async_sim.h"

#include <limits>

#include "support/check.h"
#include "trace/history.h"
#include "trace/recovery_line.h"

namespace rbx {

void AsyncSimResult::merge(const AsyncSimResult& other) {
  RBX_CHECK_MSG(rp_incl_final.size() == other.rp_incl_final.size(),
                "AsyncSimResult::merge needs matching process counts");
  interval.merge(other.interval);
  for (std::size_t i = 0; i < rp_incl_final.size(); ++i) {
    rp_incl_final[i].merge(other.rp_incl_final[i]);
    rp_excl_final[i].merge(other.rp_excl_final[i]);
    rp_state_changing[i].merge(other.rp_state_changing[i]);
  }
  line_age.merge(other.line_age);
}

namespace {

// The event categories' rates: every process's RP rate, then each pair's.
std::vector<double> event_rates(
    const ProcessSetParams& params,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
  std::vector<double> rates = params.mu();
  for (const auto& [i, j] : pairs) {
    rates.push_back(params.lambda(i, j));
  }
  return rates;
}

}  // namespace

AsyncRbSimulator::AsyncRbSimulator(ProcessSetParams params, std::uint64_t seed)
    : params_(std::move(params)),
      rng_(seed),
      pairs_(params_.interacting_pairs()),
      table_(event_rates(params_, pairs_)) {
  for (std::size_t i = 0; i < params_.n(); ++i) {
    bits_.push_back(std::size_t{1} << i);
  }
  for (const auto& [i, j] : pairs_) {
    bits_.push_back((std::size_t{1} << i) | (std::size_t{1} << j));
  }
}

AsyncSimResult AsyncRbSimulator::run_lines(std::size_t lines,
                                           double error_rate) {
  const std::size_t n = params_.n();
  AsyncSimResult result;
  result.rp_incl_final.resize(n);
  result.rp_excl_final.resize(n);
  result.rp_state_changing.resize(n);

  const std::size_t full = (std::size_t{1} << n) - 1;
  double t = 0.0;
  double line_start = 0.0;
  double next_error = error_rate > 0.0
                          ? rng_.exponential(error_rate)
                          : std::numeric_limits<double>::infinity();
  std::size_t mask = full;  // the entry state
  incl_scratch_.assign(n, 0);
  state_changing_scratch_.assign(n, 0);
  std::vector<std::size_t>& incl = incl_scratch_;
  std::vector<std::size_t>& state_changing = state_changing_scratch_;

  std::size_t formed = 0;
  while (formed < lines) {
    const std::size_t k = next_event(t);
    // Sample the line age at every error instant passed by this event (the
    // error process is independent of RPs and interactions).
    while (next_error <= t) {
      result.line_age.add(next_error - line_start);
      next_error += rng_.exponential(error_rate);
    }
    if (k >= n) {
      // Interaction clears the pair's bits (rules R2 / R3).
      mask &= ~bits_[k];
      continue;
    }

    // Recovery point of process k.  It changes the chain's state at the
    // entry state (rule R4: a fresh RP on the line re-forms a line
    // immediately) or when x_k = 0; an RP while x_k = 1 (intermediate) is
    // invisible to the chain and is counted in incl/excl only.
    ++incl[k];
    if (mask == full || (mask & bits_[k]) == 0) {
      ++state_changing[k];
    }
    mask |= bits_[k];
    if (mask != full) {
      continue;
    }

    ++formed;
    result.interval.add(t - line_start);
    for (std::size_t i = 0; i < n; ++i) {
      result.rp_incl_final[i].add(static_cast<double>(incl[i]));
      // The line-forming RP (this one, owned by k) is excluded from
      // convention (b).
      const std::size_t e = incl[i] - (i == k ? 1 : 0);
      result.rp_excl_final[i].add(static_cast<double>(e));
      result.rp_state_changing[i].add(static_cast<double>(state_changing[i]));
      incl[i] = state_changing[i] = 0;
    }
    line_start = t;
  }
  return result;
}

ExactLineResult AsyncRbSimulator::run_exact(std::size_t events) {
  const std::size_t n = params_.n();
  ExactLineResult result;

  History history(n);
  RecoveryLineFinder finder(history);

  const std::size_t full = (std::size_t{1} << n) - 1;
  double t = 0.0;
  std::size_t mask = full;
  double model_line_start = 0.0;

  // Exact observer state: current maximal line M, last-advance time, and
  // the baseline of the last full refresh.
  std::vector<double> max_line(n, 0.0);
  std::vector<double> refresh_base(n, 0.0);
  double last_advance = 0.0;
  double last_refresh = 0.0;

  for (std::size_t e = 0; e < events; ++e) {
    const std::size_t k = next_event(t);
    if (k >= n) {
      const auto [a, b] = pairs_[k - n];
      history.add_interaction(a, b, t);
      mask &= ~bits_[k];
      continue;
    }

    history.add_recovery_point(k, t);

    // Model observer: the RP forms a line at the entry state or when it
    // sets the last clear bit; otherwise setting its bit is all it does.
    mask |= bits_[k];
    if (mask == full) {
      result.model_interval.add(t - model_line_start);
      model_line_start = t;
    }

    // Exact observer: only an RP can advance the maximal line.
    const RecoveryLine line = finder.latest_line(t);
    bool advanced = false;
    bool all_newer = true;
    for (std::size_t p = 0; p < n; ++p) {
      const double lt = line.points[p].is_initial ? 0.0 : line.points[p].time;
      if (lt > max_line[p]) {
        max_line[p] = lt;
        advanced = true;
      }
      if (max_line[p] <= refresh_base[p]) {
        all_newer = false;
      }
    }
    if (advanced) {
      result.any_advance.add(t - last_advance);
      last_advance = t;
    }
    if (all_newer) {
      result.full_refresh.add(t - last_refresh);
      last_refresh = t;
      refresh_base = max_line;
    }
  }
  return result;
}

}  // namespace rbx
