#include "des/sync_sim.h"

#include <algorithm>

#include "support/check.h"

namespace rbx {

void SyncSimResult::merge(const SyncSimResult& other) {
  max_wait.merge(other.max_wait);
  loss.merge(other.loss);
  line_spacing.merge(other.line_spacing);
  states_per_line.merge(other.states_per_line);
  rollback_distance.merge(other.rollback_distance);
  total_loss += other.total_loss;
  total_time += other.total_time;
  loss_rate = total_time > 0.0 ? total_loss / total_time : 0.0;
}

SyncRbSimulator::SyncRbSimulator(SyncSimParams params, std::uint64_t seed)
    : params_(std::move(params)), rng_(seed) {
  RBX_CHECK(!params_.mu.empty());
  for (double m : params_.mu) {
    RBX_CHECK(m > 0.0);
  }
  RBX_CHECK(params_.interval > 0.0);
  RBX_CHECK(params_.elapsed_threshold > 0.0);
  RBX_CHECK(params_.saved_threshold > 0);
  RBX_CHECK(params_.error_rate >= 0.0);
}

SyncSimResult SyncRbSimulator::run(std::size_t lines) {
  const std::size_t n = params_.mu.size();
  double total_mu = 0.0;
  for (double m : params_.mu) {
    total_mu += m;
  }

  // Every draw of the run goes through one block (support/rng.h), which
  // leaves rng_ where the scalar draws would when the run returns.
  DrawBlock draws(rng_);
  SyncSimResult result;
  double t = 0.0;
  double last_line = 0.0;
  double next_timer = params_.interval;  // strategy 1 wall-clock timer
  double total_loss = 0.0;

  for (std::size_t formed = 0; formed < lines; ++formed) {
    // --- decide when the synchronization request fires ---
    double request = 0.0;
    std::size_t states_between = 0;
    switch (params_.strategy) {
      case SyncStrategy::kConstantInterval: {
        // Next timer tick after the current time; ticks that fell inside
        // the previous commit window fire immediately (the inefficiency the
        // paper calls out for this strategy).
        while (next_timer < t) {
          next_timer += params_.interval;
        }
        request = next_timer;
        next_timer += params_.interval;
        // Count ordinary RPs recorded meanwhile (Poisson thinning).
        std::size_t count = 0;
        double s = t;
        for (;;) {
          s += draws.exponential(total_mu);
          if (s >= request) {
            break;
          }
          ++count;
        }
        states_between = count;
        break;
      }
      case SyncStrategy::kElapsedTime: {
        request = last_line + params_.elapsed_threshold;
        if (request < t) {
          request = t;  // commit window outlasted the threshold
        }
        std::size_t count = 0;
        double s = t;
        for (;;) {
          s += draws.exponential(total_mu);
          if (s >= request) {
            break;
          }
          ++count;
        }
        states_between = count;
        break;
      }
      case SyncStrategy::kSavedStates: {
        // The request fires at the RP event that exceeds the threshold.
        double s = t;
        for (std::size_t count = 0; count < params_.saved_threshold;
             ++count) {
          s += draws.exponential(total_mu);
        }
        request = s;
        states_between = params_.saved_threshold;
        break;
      }
    }

    // --- commit: every process runs to its next acceptance test ---
    double z = 0.0;
    double loss = 0.0;
    std::vector<double>& y = y_scratch_;
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = draws.exponential(params_.mu[i]);
      z = std::max(z, y[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      loss += z - y[i];
    }
    const double line_time = request + z;

    // --- errors since the previous line roll back to it ---
    if (params_.error_rate > 0.0) {
      double e = last_line;
      for (;;) {
        e += draws.exponential(params_.error_rate);
        if (e >= line_time) {
          break;
        }
        result.rollback_distance.add(e - last_line);
      }
    }

    result.max_wait.add(z);
    result.loss.add(loss);
    result.line_spacing.add(line_time - last_line);
    result.states_per_line.add(static_cast<double>(states_between + n));
    total_loss += loss;

    last_line = line_time;
    t = line_time;
  }

  result.loss_rate = t > 0.0 ? total_loss / t : 0.0;
  result.total_loss = total_loss;
  result.total_time = t;
  return result;
}

}  // namespace rbx
