#include "des/async_sim.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <thread>

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

// --- the event pipeline (des/async_sim.h) ----------------------------------

// Events per block a helper takes, and per block the observer reads
// straight off the generator.  The solo block stays small because its
// draws past the last line are wasted work on the only thread.
constexpr std::size_t kBlock = 1024;
constexpr std::size_t kSoloBlock = 256;
// Blocks read ahead of the observer; helpers beyond kDepth - 1 would find
// nothing to take.  Look-ahead memory: kDepth * kBlock * 12 B = 96 KB.
constexpr std::size_t kDepth = 8;
constexpr std::size_t kMaxHelpers = kDepth - 1;
// How often a helper whose thread was given back looks for a new grant.
constexpr auto kParkedPoll = std::chrono::microseconds(100);

// A view of consecutive events after stage 2.
struct Events {
  const double* delay = nullptr;
  const std::uint32_t* category = nullptr;
  std::size_t size = 0;
};

// Stages 1 and 2 for `size` events drawn from `rng`, which advances past
// them: each event's delay and category are drawn exactly as the
// on-demand path draws them.
void draw_events(Rng& rng, const CategoricalTable& table, std::size_t size,
                 double* delay, std::uint32_t* category) {
  const double total = table.total();
  for (std::size_t i = 0; i < size; ++i) {
    delay[i] = rng.exponential(total);
    category[i] = static_cast<std::uint32_t>(table.sample(rng));
  }
}

// Stage 1 alone: steps `rng` past `size` events.
void skip_events(Rng& rng, std::size_t size) {
  for (std::size_t i = 0; i < 2 * size; ++i) {
    rng.next_u64();
  }
}

// Hands run_lines the event stream block by block, computing stage 2 on
// helper threads when it has any.  Every block is announced in a slot
// whose tag packs (block id << 3 | state); ids only grow, so a tag never
// repeats and each hand-off is one compare-exchange:
//
//   free -> announced       the observer stepped the generator past the
//                           block and stored its start state (release);
//   announced -> claimed    a helper (or the observer) takes it;
//   claimed -> ready        the helper finished (release);
//   claimed -> abandoned    the observer reached the block first and
//                           computes it itself; the helper frees it;
//   ready/claimed -> free   the observer consumed it.
//
// The observer never waits on a tag.  Helpers read the slot's start state
// and write its arrays only between their claim and their release, and
// the observer reads the arrays only after seeing `ready`.
class EventPipeline {
 public:
  EventPipeline(Rng& rng, const CategoricalTable& table, std::size_t own,
                ThreadLoan* loan)
      : head_(rng), table_(table), own_(std::min(own, kMaxHelpers)),
        loan_(loan) {}

  ~EventPipeline() {
    stop_.store(true);
    for (std::thread& helper : helpers_) {
      helper.join();
    }
    if (loan_ != nullptr) {
      loan_->settle(borrowed_, 0);
    }
  }

  EventPipeline(const EventPipeline&) = delete;
  EventPipeline& operator=(const EventPipeline&) = delete;

  // The next block of events in stream order; valid until the next call.
  // Out of line: it runs once per block, and keeping it out of the
  // observer's loop keeps that loop small.
  [[gnu::noinline]] Events next() {
    release_current();
    settle();
    announce();
    if (!queued_.empty()) {
      return take_queued();
    }
    start_ = head_;
    draw_events(head_, table_, kSoloBlock, solo_delay_.data(),
                solo_category_.data());
    return {solo_delay_.data(), solo_category_.data(), kSoloBlock};
  }

  // Rewinds the generator to just after the first `consumed` events of
  // the block next() returned last.
  void rewind(std::size_t consumed) {
    head_ = start_;
    skip_events(head_, consumed);
  }

 private:
  enum : std::uint64_t {
    kFree = 0,
    kAnnounced = 1,
    kClaimed = 2,
    kReady = 3,
    kAbandoned = 4,
    kStateMask = 7,
  };

  struct Slot {
    std::atomic<std::uint64_t> tag{kFree};
    Rng start;
    std::array<double, kBlock> delay;
    std::array<std::uint32_t, kBlock> category;
  };

  // Block boundary: gives back what lenders reclaimed, borrows what they
  // lend, and sets how many helpers work (starting threads on the first
  // grant of each).
  void settle() {
    if (loan_ != nullptr) {
      borrowed_ = loan_->settle(borrowed_, kMaxHelpers - own_);
    }
    const std::size_t target = own_ + borrowed_;
    if (target == active_count_) {
      return;
    }
    if (slots_ == nullptr) {
      slots_ = std::make_unique<std::array<Slot, kDepth>>();
    }
    active_count_ = target;
    active_.store(target, std::memory_order_release);
    while (helpers_.size() < target) {
      helpers_.emplace_back(&EventPipeline::help, this, helpers_.size());
    }
  }

  // Stage 1 for every free slot while helpers work: the generator steps
  // past the block and the slot records where it started.
  void announce() {
    if (active_count_ == 0) {
      return;
    }
    for (Slot& slot : *slots_) {
      if (slot.tag.load(std::memory_order_acquire) != kFree) {
        continue;
      }
      slot.start = head_;
      skip_events(head_, kBlock);
      const std::uint64_t id = next_id_++;
      slot.tag.store(id << 3 | kAnnounced, std::memory_order_release);
      queued_.push_back({&slot, id});
    }
  }

  // The oldest announced block: a helper's result if it is ready, else
  // the observer's own.
  Events take_queued() {
    const auto [slot, id] = queued_.front();
    queued_.pop_front();
    start_ = slot->start;
    std::uint64_t tag = id << 3 | kAnnounced;
    if (slot->tag.compare_exchange_strong(tag, id << 3 | kClaimed,
                                          std::memory_order_acquire)) {
      // No helper took it: compute it in place.
      Rng rng = start_;
      draw_events(rng, table_, kBlock, slot->delay.data(),
                  slot->category.data());
    } else if (tag == (id << 3 | kClaimed) &&
               slot->tag.compare_exchange_strong(
                   tag, id << 3 | kAbandoned, std::memory_order_acquire)) {
      // A helper is still on it: never wait, compute it here.
      Rng rng = start_;
      draw_events(rng, table_, kBlock, solo_delay_.data(),
                  solo_category_.data());
      return {solo_delay_.data(), solo_category_.data(), kBlock};
    }
    // Here the slot is ready (by a helper or by the observer above).
    current_ = slot;
    return {slot->delay.data(), slot->category.data(), kBlock};
  }

  void release_current() {
    if (current_ != nullptr) {
      current_->tag.store(kFree, std::memory_order_release);
      current_ = nullptr;
    }
  }

  // A helper thread: takes the oldest announced block, runs stage 2 on it
  // and publishes it, while its index is below the active count.
  void help(std::size_t index) {
    while (!stop_.load(std::memory_order_relaxed)) {
      if (index >= active_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(kParkedPoll);  // thread given back
        continue;
      }
      Slot* oldest = nullptr;
      std::uint64_t oldest_tag = 0;
      for (Slot& slot : *slots_) {
        const std::uint64_t tag = slot.tag.load(std::memory_order_relaxed);
        if ((tag & kStateMask) == kAnnounced &&
            (oldest == nullptr || tag < oldest_tag)) {
          oldest = &slot;
          oldest_tag = tag;
        }
      }
      const std::uint64_t id_bits = oldest_tag & ~std::uint64_t{kStateMask};
      if (oldest == nullptr ||
          !oldest->tag.compare_exchange_strong(oldest_tag, id_bits | kClaimed,
                                               std::memory_order_acquire)) {
        std::this_thread::yield();
        continue;
      }
      Rng rng = oldest->start;
      draw_events(rng, table_, kBlock, oldest->delay.data(),
                  oldest->category.data());
      std::uint64_t claimed = id_bits | kClaimed;
      if (!oldest->tag.compare_exchange_strong(claimed, id_bits | kReady,
                                               std::memory_order_release)) {
        oldest->tag.store(kFree, std::memory_order_release);  // abandoned
      }
    }
  }

  Rng& head_;  // stage 1's generator: the next unread event
  const CategoricalTable& table_;
  const std::size_t own_;  // helpers of the cell's own thread budget
  ThreadLoan* const loan_;
  std::size_t borrowed_ = 0;

  // Observer-only state.
  Rng start_;                // the generator before the current block
  Slot* current_ = nullptr;  // the slot being consumed, if any
  std::deque<std::pair<Slot*, std::uint64_t>> queued_;  // announced, in order
  std::uint64_t next_id_ = 0;
  std::size_t active_count_ = 0;  // the observer's copy of active_
  std::array<double, kBlock> solo_delay_;
  std::array<std::uint32_t, kBlock> solo_category_;

  // Shared with the helpers.
  std::unique_ptr<std::array<Slot, kDepth>> slots_;
  std::atomic<std::size_t> active_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> helpers_;  // last: joined before the rest dies
};

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
                                           double error_rate,
                                           std::size_t helpers,
                                           ThreadLoan* loan) {
  const std::size_t n = params_.n();
  AsyncSimResult result;
  result.rp_incl_final.resize(n);
  result.rp_excl_final.resize(n);
  result.rp_state_changing.resize(n);

  const std::size_t full = (std::size_t{1} << n) - 1;
  double t = 0.0;
  double line_start = 0.0;
  const bool on_demand = error_rate > 0.0;
  double next_error = on_demand ? rng_.exponential(error_rate)
                                : std::numeric_limits<double>::infinity();
  std::size_t mask = full;  // the entry state
  incl_scratch_.assign(n, 0);
  state_changing_scratch_.assign(n, 0);
  std::vector<std::size_t>& incl = incl_scratch_;
  std::vector<std::size_t>& state_changing = state_changing_scratch_;

  // Stage 3, the observer step: one event, in stream order.
  std::size_t formed = 0;
  const auto observe = [&](double delay, std::size_t k) {
    t += delay;
    // Sample the line age at every error instant passed by this event (the
    // error process is independent of RPs and interactions).
    while (next_error <= t) {
      result.line_age.add(next_error - line_start);
      next_error += rng_.exponential(error_rate);
    }
    if (k >= n) {
      // Interaction clears the pair's bits (rules R2 / R3).
      mask &= ~bits_[k];
      return;
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
      return;
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
  };

  if (on_demand) {
    // Error draws follow the events they pass, so each event is drawn
    // (stages 1 and 2) just before it is observed.
    while (formed < lines) {
      const double delay = rng_.exponential(table_.total());
      observe(delay, table_.sample(rng_));
    }
    return result;
  }
  if (lines == 0) {
    return result;
  }
  EventPipeline pipeline(rng_, table_, helpers, loan);
  for (;;) {
    const Events block = pipeline.next();
    for (std::size_t e = 0; e < block.size; ++e) {
      observe(block.delay[e], block.category[e]);
      if (formed == lines) {
        pipeline.rewind(e + 1);  // events read ahead stay in the stream
        return result;
      }
    }
  }
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
