// A count of idle threads that their owners lend to whoever can use them.
//
// A ThreadLane worker that is blocked waiting for its next batch has
// nothing to run, so it lends its share of the lane's threads here, and a
// cell still running on another worker may borrow them for intra-cell
// work (the asynchronous simulator's event pipeline, des/async_sim.h).
// The lender takes its share back as soon as a batch arrives, whether or
// not a borrower holds it at that moment: the count goes negative, and
// each borrower gives threads back at its next settle() until it is not.
// So a loan costs a lender nothing but the few microseconds until the
// borrower's next block boundary.
//
// One atomic word, no lock: lenders and borrowers are threads of one
// process, and nothing here survives into a fork child (a ForkLane child
// installs no loan at all).  Borrowed threads are a resource, never
// semantics - whatever a borrower computes on them must be bitwise what
// it computes without them.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace rbx {

class ThreadLoan {
 public:
  ThreadLoan() = default;
  ThreadLoan(const ThreadLoan&) = delete;
  ThreadLoan& operator=(const ThreadLoan&) = delete;

  // Lender side: `n` more threads are idle, or `n` lent threads are taken
  // back (in use or not).
  void lend(std::size_t n) { count_.fetch_add(as_signed(n)); }
  void reclaim(std::size_t n) { count_.fetch_sub(as_signed(n)); }

  // Borrower side, at a block boundary: the borrower holds `held` threads
  // and could use `want`.  Gives back what lenders have reclaimed and
  // anything beyond `want` (never more than `held`), otherwise takes what
  // is lendable (up to `want`), and returns the number now held.
  // settle(held, 0) gives everything back.
  std::size_t settle(std::size_t held, std::size_t want) {
    const std::int64_t h = as_signed(held);
    const std::int64_t w = as_signed(want);
    std::int64_t c = count_.load(std::memory_order_relaxed);
    for (;;) {
      // give > 0 returns threads to the count, give < 0 borrows them.
      const std::int64_t give = c < 0 || h > w
                                    ? std::min(h, std::max(-c, h - w))
                                    : -std::min(c, w - h);
      if (give == 0) {
        return held;
      }
      if (count_.compare_exchange_weak(c, c + give)) {
        return static_cast<std::size_t>(h - give);
      }
    }
  }

  // Threads a borrower could take now; negative while borrowers owe.
  std::int64_t lendable() const { return count_.load(); }

 private:
  static std::int64_t as_signed(std::size_t n) {
    return static_cast<std::int64_t>(n);
  }

  std::atomic<std::int64_t> count_{0};
};

}  // namespace rbx
