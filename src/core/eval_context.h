// Ambient per-thread evaluation context.
//
// Backends are stateless singletons (core/backend.h), so an execution
// knob like "how many intra-cell threads may this evaluation use" cannot
// live on the backend, and threading it through every evaluate() call
// would churn the EvalBackend interface for what is purely a runtime
// resource hint.  Instead the dispatch layer installs an EvalContext on
// the worker thread before invoking the backend, and the backend reads
// it ambiently.
//
// The context is a *budget*, never semantics: a backend must produce
// bitwise-identical results for any thread_budget and any loan (the
// Monte-Carlo backend partitions work by RNG sub-stream or by pipeline
// stage, never by thread; see core/monte_carlo_backend.cc).  The default
// context has a budget of 1 and no loan, so code that never installs a
// scope gets sequential evaluation.
//
// Two kinds of threads: the budget is the worker's own static share and
// never changes during a cell; the loan is the lane-wide count of threads
// that idle ThreadLane workers lend (support/thread_loan.h), which a cell
// may borrow on top of its budget and must give back at its next block
// boundary once the lender reclaims them.  Only ThreadLane installs a
// loan; ForkLane children and sweep_workerd sessions keep a static
// budget, and no count is shared across processes.
#pragma once

#include <cstddef>

namespace rbx {

class ThreadLoan;  // support/thread_loan.h

struct EvalContext {
  // Maximum number of threads one cell evaluation may use of its own.  1
  // means fully sequential; the Monte-Carlo backend spawns at most
  // min(streams, thread_budget) stream workers, and a streams=1
  // asynchronous cell gives thread_budget - 1 to its event pipeline.
  std::size_t thread_budget = 1;
  // The lane's lendable threads, or null (no lender).  Helper and stream
  // threads do not inherit this context; the backend passes the pointer
  // down to des/ as an argument.
  ThreadLoan* loan = nullptr;
};

// The context installed on the calling thread (default-constructed if no
// EvalContextScope is active).
const EvalContext& current_eval_context();

// RAII installer: replaces the calling thread's context for the scope's
// lifetime and restores the previous one on destruction.  Scopes nest.
class EvalContextScope {
 public:
  explicit EvalContextScope(EvalContext ctx);
  ~EvalContextScope();

  EvalContextScope(const EvalContextScope&) = delete;
  EvalContextScope& operator=(const EvalContextScope&) = delete;

 private:
  EvalContext previous_;
};

}  // namespace rbx
