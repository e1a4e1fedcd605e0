#include "core/monte_carlo_backend.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "core/eval_context.h"
#include "des/async_sim.h"
#include "des/prp_sim.h"
#include "des/sync_sim.h"
#include "support/rng.h"
#include "support/stats.h"

namespace rbx {

namespace {

// Stream k's share of the sample budget: samples/streams, with the
// remainder spread over the first samples % streams streams.  The sum
// over k is exactly `samples` and the split depends only on (samples,
// streams), never on thread count.
std::size_t stream_chunk(std::size_t samples, std::size_t streams,
                         std::size_t k) {
  return samples / streams + (k < samples % streams ? 1 : 0);
}

// Sample-parallel evaluation core: partitions the scenario's sample
// budget into streams() independent RNG sub-streams, runs each under
// derive_stream_seed(s.seed(), k), and merges the partial results in
// ascending stream order on the calling thread.
//
// Determinism contract: the result is a pure function of (scenario,
// streams()).  Worker threads only decide *which thread* runs a stream
// (stream k is owned by worker k % workers and each worker reseeds its
// simulator per stream), never what the stream computes; the merge order
// is fixed, so any thread budget - including 1 - yields bitwise
// identical results.  Callers short-circuit streams() == 1 to the
// seed()-seeded sequential path, which this function must not receive.
//
// MakeSim(seed) builds a simulator; RunOne(sim, chunk) runs one stream's
// chunk.  Each worker constructs a single simulator and reseeds it per
// stream, reusing the event tables and scratch buffers across streams.
// The stream workers are the cell's own budget; threads its lane lends
// reach the streams through RunOne (the asynchronous simulator's event
// pipeline), which must capture the loan before the workers start -
// they do not inherit the ambient context.
template <typename Result, typename MakeSim, typename RunOne>
Result run_streams(const Scenario& s, MakeSim make_sim, RunOne run_one) {
  const std::size_t streams = s.streams();
  const std::size_t budget =
      std::max<std::size_t>(current_eval_context().thread_budget, 1);
  const std::size_t workers = std::min(streams, budget);

  std::vector<Result> parts(streams);
  auto work = [&](std::size_t w) {
    auto sim = make_sim(derive_stream_seed(s.seed(), w));
    for (std::size_t k = w; k < streams; k += workers) {
      sim.reseed(derive_stream_seed(s.seed(), k));
      parts[k] = run_one(sim, stream_chunk(s.samples(), streams, k));
    }
  };

  if (workers <= 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    std::vector<std::exception_ptr> errors(workers);
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&work, &errors, w] {
        try {
          work(w);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
    for (const std::exception_ptr& e : errors) {
      if (e) {
        std::rethrow_exception(e);
      }
    }
  }

  Result merged = std::move(parts[0]);
  for (std::size_t k = 1; k < streams; ++k) {
    merged.merge(parts[k]);
  }
  return merged;
}

void set_sample(ResultSet& out, const std::string& name, const SampleSet& s) {
  out.set(name, s.mean(), s.ci_half_width(), s.count());
}

void set_stats(ResultSet& out, const std::string& name,
               const RunningStats& s) {
  out.set(name, s.mean(), s.ci_half_width(), s.count());
}

void evaluate_async(const Scenario& s, ResultSet& out) {
  const AsyncSimResult r = run_async_monte_carlo(s);
  set_sample(out, "mean_interval_x", r.interval);
  out.set("stddev_interval_x", r.interval.stddev(), 0.0, r.interval.count());
  for (std::size_t i = 0; i < s.n(); ++i) {
    set_stats(out, indexed_metric("rp_count_", i), r.rp_incl_final[i]);
    set_stats(out, indexed_metric("rp_count_excl_", i), r.rp_excl_final[i]);
    set_stats(out, indexed_metric("rp_count_statechg_", i),
              r.rp_state_changing[i]);
  }
  if (s.error_rate() > 0.0) {
    set_sample(out, "line_age", r.line_age);
  }
}

SyncSimResult run_sync(const Scenario& s) {
  if (s.streams() <= 1) {
    SyncRbSimulator sim(s.sync_sim_params(), s.seed());
    return sim.run(s.samples());
  }
  return run_streams<SyncSimResult>(
      s,
      [&s](std::uint64_t seed) {
        return SyncRbSimulator(s.sync_sim_params(), seed);
      },
      [](SyncRbSimulator& sim, std::size_t chunk) { return sim.run(chunk); });
}

void evaluate_sync(const Scenario& s, ResultSet& out) {
  const SyncSimResult r = run_sync(s);
  set_stats(out, "sync_mean_max_wait", r.max_wait);
  set_stats(out, "sync_mean_loss", r.loss);
  set_stats(out, "sync_line_spacing", r.line_spacing);
  set_stats(out, "sync_states_per_line", r.states_per_line);
  out.set("sync_states_per_line_sd", r.states_per_line.stddev());
  out.set("sync_loss_rate", r.loss_rate);
  if (s.error_rate() > 0.0) {
    set_sample(out, "sync_rollback_distance", r.rollback_distance);
    out.set("sync_rollback_distance_p95",
            r.rollback_distance.quantile(0.95));
  }
}

PrpSimResult run_prp(const Scenario& s) {
  if (s.streams() <= 1) {
    PrpSimulator sim(s.params(), s.prp_sim_params(), s.seed());
    return sim.run(s.samples());
  }
  return run_streams<PrpSimResult>(
      s,
      [&s](std::uint64_t seed) {
        return PrpSimulator(s.params(), s.prp_sim_params(), seed);
      },
      [](PrpSimulator& sim, std::size_t chunk) { return sim.run(chunk); });
}

void evaluate_prp(const Scenario& s, ResultSet& out) {
  const PrpSimResult r = run_prp(s);
  set_sample(out, "prp_distance", r.prp_distance);
  out.set("prp_distance_p95", r.prp_distance.quantile(0.95));
  set_stats(out, "prp_affected", r.prp_affected);
  set_stats(out, "prp_iterations", r.prp_iterations);
  out.set("prp_iterations_max", r.prp_iterations.max());
  set_sample(out, "async_distance", r.async_distance);
  out.set("async_distance_p95", r.async_distance.quantile(0.95));
  set_stats(out, "async_affected", r.async_affected);
  out.set("async_domino_count", static_cast<double>(r.async_domino_count));
  out.set("failures", static_cast<double>(r.failures));
  out.set("contaminated_restarts",
          static_cast<double>(r.contaminated_restarts));
  out.set("snapshots_per_unit_time", r.snapshots_per_unit_time);
  out.set("rp_per_unit_time", r.rp_per_unit_time);
  out.set("recording_time_fraction", r.recording_time_fraction);
  out.set("horizon", r.horizon);
  if (s.prp_sync_period() > 0.0) {
    set_sample(out, "hybrid_distance", r.hybrid_distance);
    out.set("hybrid_sync_restores",
            static_cast<double>(r.hybrid_sync_restores));
    out.set("sync_lines_established",
            static_cast<double>(r.sync_lines_established));
  }
}

}  // namespace

// Runs the scheme's simulator over the full budget.  streams() == 1 is
// the exact historical path (one simulator seeded with s.seed()), whose
// event pipeline gets the budget's other threads and the lane's loan;
// streams() > 1 fans out through run_streams, each stream's pipeline
// borrowing from the same loan.
AsyncSimResult run_async_monte_carlo(const Scenario& s) {
  const EvalContext& context = current_eval_context();
  ThreadLoan* const loan = context.loan;
  if (s.streams() <= 1) {
    const std::size_t helpers =
        std::max<std::size_t>(context.thread_budget, 1) - 1;
    AsyncRbSimulator sim(s.params(), s.seed());
    return sim.run_lines(s.samples(), s.error_rate(), helpers, loan);
  }
  return run_streams<AsyncSimResult>(
      s,
      [&s](std::uint64_t seed) { return AsyncRbSimulator(s.params(), seed); },
      [&s, loan](AsyncRbSimulator& sim, std::size_t chunk) {
        return sim.run_lines(chunk, s.error_rate(), /*helpers=*/0, loan);
      });
}

bool MonteCarloBackend::supports(const Scenario& scenario) const {
  if (scenario.scheme() == SchemeKind::kPseudoRecoveryPoints) {
    return scenario.error_rate() > 0.0;
  }
  return true;
}

ResultSet MonteCarloBackend::evaluate(const Scenario& scenario) const {
  ResultSet out(name(), scenario.label());
  switch (scenario.scheme()) {
    case SchemeKind::kAsynchronous:
      evaluate_async(scenario, out);
      break;
    case SchemeKind::kSynchronized:
      evaluate_sync(scenario, out);
      break;
    case SchemeKind::kPseudoRecoveryPoints:
      evaluate_prp(scenario, out);
      break;
  }
  return out;
}

}  // namespace rbx
