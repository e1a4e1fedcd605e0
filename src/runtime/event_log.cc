#include "runtime/event_log.h"

namespace rbx {

std::uint64_t EventLog::log_recovery_point(ProcessId p,
                                           std::uint64_t* rp_seq_out) {
  const std::scoped_lock lock(mu_);
  const std::uint64_t ticket = next_ticket_++;
  history_.add_recovery_point(p, static_cast<double>(ticket));
  if (rp_seq_out != nullptr) {
    *rp_seq_out = history_.rp_count(p);
  }
  return ticket;
}

std::uint64_t EventLog::log_prp(ProcessId p, ProcessId owner,
                                std::uint64_t owner_seq) {
  const std::scoped_lock lock(mu_);
  const std::uint64_t ticket = next_ticket_++;
  history_.add_pseudo_recovery_point(p, static_cast<double>(ticket), owner,
                                     owner_seq);
  return ticket;
}

std::uint64_t EventLog::log_interaction(ProcessId a, ProcessId b) {
  const std::scoped_lock lock(mu_);
  const std::uint64_t ticket = next_ticket_++;
  history_.add_interaction(a, b, static_cast<double>(ticket));
  return ticket;
}

std::uint64_t EventLog::now() {
  const std::scoped_lock lock(mu_);
  return next_ticket_++;
}

History EventLog::snapshot() const {
  const std::scoped_lock lock(mu_);
  return history_;
}

std::uint64_t EventLog::last_ticket() const {
  const std::scoped_lock lock(mu_);
  return next_ticket_ - 1;
}

}  // namespace rbx
