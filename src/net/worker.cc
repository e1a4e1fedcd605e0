#include "net/worker.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "core/backend.h"
#include "core/eval_context.h"
#include "core/executor.h"
#include "fleet/auth.h"

namespace rbx {
namespace net {

namespace {

constexpr SessionNames kWorkerNames{"sweep_workerd", "worker", "coordinator",
                                    "--max-coordinators"};

void note(const WorkerOptions& options, const char* what) {
  if (!options.quiet) {
    std::fprintf(stderr, "sweep_workerd: %s\n", what);
  }
}

// One coordinator's session.  The cache opt-out, the fail_after counter
// and the cell counts belong to the session, not to the daemon -
// concurrent sessions must not see each other's progress.
class CoordinatorSession : public SessionHandler {
 public:
  CoordinatorSession(const WorkerOptions& options, recov::ResultCache* cache)
      : options_(options),
        cache_(cache),
        // The session thread's intra-cell thread budget: every cell below
        // evaluates under this daemon's configured stream-pool width.
        eval_scope_(
            EvalContext{std::max<std::size_t>(options.eval_threads, 1)}) {
    note(options_, "coordinator connected");
  }

  // The session summary line CI's cache smoke greps for ("evaluated=0"
  // proves the second run came entirely from the cache), printed however
  // a session that served cells ends.
  ~CoordinatorSession() override {
    if (!options_.quiet && evaluated_ + cached_ > 0) {
      std::fprintf(stderr,
                   "sweep_workerd: session done: cells=%zu evaluated=%zu "
                   "cached=%zu\n",
                   evaluated_ + cached_, evaluated_, cached_);
    }
    note(options_, "coordinator disconnected");
  }

  std::string admit(const Hello& hello) override {
    if ((hello.flags & kHelloFlagLease) != 0 &&
        hello.lease_sig !=
            fleet::lease_sig(options_.auth_key, hello.lease_token)) {
      // A forged (or mis-keyed) registry grant: refuse even though the
      // coordinator holds the transport key - admission is the registry's
      // call, and its signature is the proof.
      return "worker: fleet lease signature is invalid (not issued by this "
             "fleet's registry?)";
    }
    no_cache_ = (hello.flags & kHelloFlagNoCache) != 0;
    if (no_cache_ && cache_ != nullptr) {
      note(options_,
           "coordinator asked for --no-cache; bypassing the result cache "
           "this session");
    }
    return {};
  }

  Verdict serve(FrameChannel& conn, const wire::Frame& frame) override {
    if (frame.type != kFrameCellBatch) {
      return Verdict::kUnexpected;
    }
    if (options_.fail_after != 0 && batches_served_ >= options_.fail_after) {
      // Simulated kill: a batch is in flight and never answered.
      if (!options_.quiet) {
        std::fprintf(stderr,
                     "sweep_workerd: dropping connection after %zu "
                     "batches (--fail-after)\n",
                     batches_served_);
      }
      return Verdict::kFail;
    }
    if (options_.delay_ms != 0) {
      // Deterministic straggler: hold the batch, as a busy or overloaded
      // host would, so steal tests and CI can rely on this worker losing
      // its tail.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.delay_ms));
    }
    wire::Reader r(frame.payload);
    const CellBatch batch = CellBatch::decode(r);
    r.expect_done();
    ResultBatch response;
    response.entries.reserve(batch.cells.size());
    const bool use_cache = cache_ != nullptr && !no_cache_;
    for (const BatchCell& cell : batch.cells) {
      CellOutcome outcome;
      if (use_cache && cell.has_plan &&
          cache_->lookup(cell.scenario, cell.plan, &outcome.result)) {
        // A hit is the exact bytes an evaluation would produce (the
        // scenario carries the per-cell seed), so the answer is bitwise
        // identical - only faster.
        ++cached_;
      } else {
        if (cell.has_plan) {
          outcome = evaluate_cell(
              [&cell](const Scenario& s, std::size_t) {
                return evaluate_plan(cell.plan, s);
              },
              cell.scenario, cell.index);
        } else {
          outcome.error =
              "cell carries no evaluation plan (local-only cell_fn?)";
        }
        ++evaluated_;
        if (use_cache && outcome.ok()) {
          cache_->insert(cell.scenario, cell.plan, outcome.result);
        }
      }
      response.entries.push_back({cell.index, std::move(outcome)});
    }
    wire::Writer w;
    response.encode(w);
    if (!conn.send(kFrameResultBatch, w.data())) {
      return Verdict::kHangUp;  // coordinator went away mid-answer
    }
    ++batches_served_;
    return Verdict::kServed;
  }

 private:
  const WorkerOptions& options_;
  recov::ResultCache* const cache_;
  EvalContextScope eval_scope_;
  bool no_cache_ = false;
  std::size_t batches_served_ = 0;
  std::size_t evaluated_ = 0;
  std::size_t cached_ = 0;
};

}  // namespace

WorkerServer::WorkerServer(const WorkerOptions& options)
    : options_(options),
      server_(kWorkerNames, options.port, options.max_coordinators,
              options.once, options.quiet, options.auth_key, [this]() {
                return std::make_unique<CoordinatorSession>(options_,
                                                            cache_.get());
              }) {
  // Opened after the port is bound: a daemon that cannot listen must not
  // touch (or compact) a cache directory another daemon may be using.
  if (!options_.cache_dir.empty()) {
    recov::ResultCache::Options cache_options;
    cache_options.max_bytes = options_.cache_max_bytes;
    cache_ = std::make_unique<recov::ResultCache>(options_.cache_dir,
                                                  cache_options);
    if (!options_.quiet) {
      std::fprintf(stderr,
                   "sweep_workerd: result cache at %s (%zu entries "
                   "recovered)\n",
                   cache_->path().c_str(), cache_->entries());
    }
  }
}

}  // namespace net
}  // namespace rbx
