#include "des/prp_sim.h"

#include <limits>

#include "support/check.h"
#include "trace/history.h"
#include "trace/prp_plan.h"
#include "trace/rollback.h"

namespace rbx {

namespace {
constexpr double kClean = std::numeric_limits<double>::infinity();

// Horizon-weighted recombination of a per-unit-time rate.  Each rate is
// count / horizon (times a seed-independent constant), so
// (r1*h1 + r2*h2) / (h1+h2) == (count1 + count2) / (h1+h2) exactly.
double merge_rate(double r1, double h1, double r2, double h2) {
  const double h = h1 + h2;
  return h > 0.0 ? (r1 * h1 + r2 * h2) / h : 0.0;
}
}  // namespace

void PrpSimResult::merge(const PrpSimResult& other) {
  prp_distance.merge(other.prp_distance);
  prp_affected.merge(other.prp_affected);
  prp_iterations.merge(other.prp_iterations);
  async_distance.merge(other.async_distance);
  async_affected.merge(other.async_affected);
  async_domino_count += other.async_domino_count;
  failures += other.failures;
  contaminated_restarts += other.contaminated_restarts;
  snapshots_per_unit_time = merge_rate(snapshots_per_unit_time, horizon,
                                       other.snapshots_per_unit_time,
                                       other.horizon);
  rp_per_unit_time = merge_rate(rp_per_unit_time, horizon,
                                other.rp_per_unit_time, other.horizon);
  recording_time_fraction = merge_rate(recording_time_fraction, horizon,
                                       other.recording_time_fraction,
                                       other.horizon);
  horizon += other.horizon;
  hybrid_distance.merge(other.hybrid_distance);
  hybrid_sync_restores += other.hybrid_sync_restores;
  sync_lines_established += other.sync_lines_established;
}

namespace {

// The event categories' rates: every process's RP rate, each pair's
// interaction rate, then the error rate.
std::vector<double> event_rates(
    const ProcessSetParams& params,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    double error_rate) {
  std::vector<double> rates = params.mu();
  for (const auto& [i, j] : pairs) {
    rates.push_back(params.lambda(i, j));
  }
  rates.push_back(error_rate);
  return rates;
}

}  // namespace

PrpSimulator::PrpSimulator(ProcessSetParams params, PrpSimParams sim,
                           std::uint64_t seed)
    : params_(std::move(params)),
      sim_(sim),
      rng_(seed),
      pairs_(params_.interacting_pairs()),
      error_category_(params_.n() + pairs_.size()),
      table_(event_rates(params_, pairs_, sim_.error_rate)) {
  RBX_CHECK(sim_.t_record >= 0.0);
  RBX_CHECK(sim_.error_rate > 0.0);
}

PrpSimResult PrpSimulator::run(std::size_t failures) {
  const std::size_t n = params_.n();

  PrpSimResult result;
  History history(n);
  PrpRollbackPlanner planner(history, sim_.affects_everyone);
  RollbackAnalyzer async_analyzer(history);

  double t = 0.0;
  double cursor = 0.0;
  auto clamp = [&cursor](double time) {
    cursor = std::max(cursor, time);
    return cursor;
  };

  std::vector<double> contaminated_at(n, kClean);
  bool error_outstanding = false;
  std::size_t error_origin = 0;
  std::size_t rp_count = 0;

  // Hybrid scheme state: the newest clean synchronized line.
  double last_sync = 0.0;
  double next_sync = sim_.sync_period > 0.0
                         ? sim_.sync_period
                         : std::numeric_limits<double>::infinity();

  // Every draw of the run goes through one block (support/rng.h), which
  // leaves rng_ where the scalar draws would when the run returns.
  DrawBlock draws(rng_);
  while (result.failures < failures) {
    t += draws.exponential(table_.total());
    // Establish periodic synchronized lines (hybrid scheme); commits with
    // a latent error abort (their acceptance tests detect it), so those
    // sync instants are skipped.
    while (next_sync <= t) {
      if (!error_outstanding) {
        last_sync = next_sync;
        ++result.sync_lines_established;
      }
      next_sync += sim_.sync_period;
    }
    const std::size_t k = table_.sample(draws);

    if (k == error_category_) {
      // One outstanding error at a time keeps local/propagated ground truth
      // unambiguous; a second fault before recovery is dropped.
      if (!error_outstanding) {
        error_outstanding = true;
        error_origin = draws.uniform_index(n);
        contaminated_at[error_origin] = t;
      }
      continue;
    }

    if (k >= n) {
      // Interaction: record it and propagate contamination both ways.
      const auto [a, b] = pairs_[k - n];
      history.add_interaction(a, b, clamp(t));
      if (contaminated_at[a] <= t && contaminated_at[b] > t) {
        contaminated_at[b] = t;
      } else if (contaminated_at[b] <= t && contaminated_at[a] > t) {
        contaminated_at[a] = t;
      }
      continue;
    }

    // Recovery point attempt of process k: the acceptance test runs first.
    const std::size_t p = k;
    if (contaminated_at[p] <= t) {
      // Detection: the AT fails; no RP is recorded.
      ++result.failures;
      const ErrorScope scope =
          p == error_origin ? ErrorScope::kLocal : ErrorScope::kPropagated;

      const PrpRollbackResult plan = planner.plan(p, t, scope);
      result.prp_distance.add(plan.rollback_distance);
      result.prp_affected.add(static_cast<double>(plan.affected_count));
      result.prp_iterations.add(static_cast<double>(plan.iterations));
      if (sim_.sync_period > 0.0) {
        // Hybrid cap: if the pointer loop would cross the newest clean
        // synchronized line, everyone restores that line instead.
        if (plan.rollback_distance > t - last_sync) {
          result.hybrid_distance.add(t - last_sync);
          ++result.hybrid_sync_restores;
        } else {
          result.hybrid_distance.add(plan.rollback_distance);
        }
      }
      for (std::size_t q = 0; q < n; ++q) {
        if (plan.affected[q] && contaminated_at[q] <= plan.restart[q].time) {
          ++result.contaminated_restarts;
        }
      }

      const RollbackResult async = async_analyzer.analyze_failure(p, t);
      result.async_distance.add(async.rollback_distance);
      result.async_affected.add(static_cast<double>(async.affected_count));
      if (async.domino_to_start) {
        ++result.async_domino_count;
      }

      // Instantaneous repair: the error is gone, execution continues (the
      // renewal shortcut; see the header).
      contaminated_at.assign(n, kClean);
      error_outstanding = false;
      continue;
    }

    // AT passes: RP recorded, implantation requests broadcast, every other
    // process snapshots a PRP after its recording delay - all at one time,
    // so the RP's pseudo recovery line is one record.  A lone process has
    // no line, and its clamp must not advance.
    history.add_recovery_point(p, clamp(t));
    ++rp_count;
    if (n > 1) {
      history.add_pseudo_recovery_line(p, clamp(t + sim_.t_record),
                                       history.rp_count(p));
    }
  }

  result.horizon = t;
  if (t > 0.0) {
    result.snapshots_per_unit_time =
        static_cast<double>(rp_count) * static_cast<double>(n) / t;
    result.rp_per_unit_time = static_cast<double>(rp_count) / t;
    result.recording_time_fraction =
        static_cast<double>(rp_count) * static_cast<double>(n - 1) *
        sim_.t_record / (static_cast<double>(n) * t);
  }
  return result;
}

}  // namespace rbx
