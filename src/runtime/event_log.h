// Thread-safe global event log for the runtime.
//
// Recovery analysis needs a totally ordered view of RPs, PRPs and message
// deliveries across all threads.  The log hands out monotonically
// increasing tickets under its lock, so the order the events carry is
// exactly the order they were appended - a linearization of the concurrent
// execution.  Events go straight into the trace History consumed by the
// rollback analyzers (time = ticket); snapshot() copies it.
#pragma once

#include <cstdint>
#include <mutex>

#include "trace/history.h"

namespace rbx {

class EventLog {
 public:
  explicit EventLog(std::size_t num_processes) : history_(num_processes) {}

  // Each method returns the ticket assigned to the event.
  std::uint64_t log_recovery_point(ProcessId p, std::uint64_t* rp_seq_out);
  std::uint64_t log_prp(ProcessId p, ProcessId owner, std::uint64_t owner_seq);
  std::uint64_t log_interaction(ProcessId a, ProcessId b);

  // A ticket without an event (used to timestamp failures).
  std::uint64_t now();

  // The history recorded so far (events get time = ticket).
  History snapshot() const;

  std::uint64_t last_ticket() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t next_ticket_ = 1;
  History history_;
};

}  // namespace rbx
