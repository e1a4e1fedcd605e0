// Execution histories of cooperating concurrent processes.
//
// A History is the "history diagram" of the paper's Figure 1: per-process
// recovery points (and pseudo recovery points) plus pairwise interactions,
// all stamped with a global time.  The exact recovery-line finder, the
// rollback-propagation analyzer and the PRP planner all operate on this
// representation; both the discrete-event simulator and the thread runtime
// emit it.  The simulator records each RP's PRPs as one pseudo recovery
// line; the runtime records each PRP at the time its process took it.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace rbx {

using ProcessId = std::size_t;

enum class EventKind {
  kRecoveryPoint,        // RP with acceptance test (paper's RP_j^i)
  kPseudoRecoveryPoint,  // PRP implanted on behalf of another process's RP
  kInteraction,          // symmetric interprocess communication
};

struct TraceEvent {
  EventKind kind = EventKind::kInteraction;
  double time = 0.0;
  ProcessId process = 0;  // owner (RP/PRP) or lower party (interaction)
  // Interaction: the higher party.  PRP: the process whose RP triggered the
  // implantation.  RP: equal to `process`.
  ProcessId peer = 0;
  // RP: per-process recovery point sequence number (1-based).
  // PRP: the triggering RP's sequence number in `peer`.
  std::size_t rp_seq = 0;
};

// A per-process restart position: the time of the checkpoint restored.  Time
// 0 denotes the process's initial state (restart from the beginning - the
// paper's worst-case domino outcome).
struct RestartPoint {
  double time = 0.0;
  bool is_initial = true;         // no recorded checkpoint: back to start
  bool is_pseudo = false;         // restored from a PRP rather than an RP
  std::size_t rp_seq = 0;         // sequence number when !is_initial
};

// A recovery line: one restart point per process.
struct RecoveryLine {
  std::vector<RestartPoint> points;

  double min_time() const;
  double max_time() const;
};

class History {
 public:
  explicit History(std::size_t num_processes);

  std::size_t num_processes() const { return n_; }

  // Events must be appended in non-decreasing time order.
  void add_recovery_point(ProcessId p, double time);
  // One PRP, recorded by process p at its own time (the thread runtime's
  // event log): kept in p's own list.
  void add_pseudo_recovery_point(ProcessId p, double time, ProcessId owner,
                                 std::size_t owner_rp_seq);
  // The pseudo recovery line of the owner's RP owner_rp_seq, which must be
  // the owner's newest RP and have no line yet: every other process
  // records its PRP at the one `time` (the paper's PRL_k^j).  Observably
  // the n-1 calls add_pseudo_recovery_point(q, time, owner, owner_rp_seq),
  // q != owner in ascending order, but stored as one time: per owner,
  // keyed by owner_rp_seq.  With one process there is no member: the call
  // checks its arguments and records nothing.
  void add_pseudo_recovery_line(ProcessId owner, double time,
                                std::size_t owner_rp_seq);
  void add_interaction(ProcessId a, ProcessId b, double time);

  // Every event as one time-ordered list.  The list is not stored: each
  // call derives it from the per-process, per-line and per-pair indices
  // below (the only copy of each event) and stable-sorts it by time,
  // O(E log E) time and O(E) memory for E events - meant for export and
  // tests, not hot paths.  Where event times are distinct this is the
  // append order.  Events sharing a time come RPs first, then PRPs, then
  // interactions; RPs and PRPs by process, interactions by pair, each in
  // append order.  A process's line members are listed as its own PRPs
  // would be, and before them if a history holds both.  An interaction is
  // listed with its lower process id as `process` and the higher one as
  // `peer`, whichever order add_interaction received them in.
  std::vector<TraceEvent> events() const;
  double last_time() const { return last_time_; }

  // Recovery points of process p, in time order.
  const std::vector<double>& rp_times(ProcessId p) const;
  std::size_t rp_count(ProcessId p) const;

  // The three time queries below (and has_interaction_in) answer exactly
  // what std::upper_bound/std::lower_bound over the whole time vector
  // would, but gallop back from its newest entry (probes at distances 1, 2,
  // 4, ... from the end) before bisecting the bracket found.  Callers ask
  // about recent times, so a query costs O(log d) for an answer d entries
  // from the end; one far back costs at most about twice a bisection.

  // The latest recovery point of p at or before `time` (with its 1-based
  // sequence number); nullopt when none exists.
  std::optional<RestartPoint> latest_rp_at_or_before(ProcessId p,
                                                     double time) const;
  // Strictly before `time`.
  std::optional<RestartPoint> latest_rp_before(ProcessId p, double time) const;

  // The PRP implanted in process p for the owner's RP with sequence seq;
  // nullopt if it was never implanted.  A line member answers in O(1);
  // otherwise p's own list is scanned from its newest entry, where the
  // pointer's recent RPs have theirs, and the newest match answers.
  std::optional<RestartPoint> prp_for(ProcessId p, ProcessId owner,
                                      std::size_t owner_rp_seq) const;

  // Interaction times between the (unordered) pair {a, b}, in time order.
  const std::vector<double>& interaction_times(ProcessId a, ProcessId b) const;

  // True when the pair {a, b} has at least one interaction time inside the
  // closed interval [lo, hi] (the paper's "sandwiched" condition).
  bool has_interaction_in(ProcessId a, ProcessId b, double lo,
                          double hi) const;

  // Earliest interaction of the pair inside [lo, hi], if any.
  std::optional<double> first_interaction_in(ProcessId a, ProcessId b,
                                             double lo, double hi) const;

 private:
  std::size_t pair_index(ProcessId a, ProcessId b) const;

  std::size_t n_;
  double last_time_ = 0.0;
  std::vector<std::vector<double>> rp_times_;            // per process
  std::vector<std::vector<double>> pair_interactions_;   // per unordered pair
  struct PrpRecord {
    ProcessId owner;
    std::size_t owner_rp_seq;
    double time;
  };
  std::vector<std::vector<PrpRecord>> prps_;             // per process
  // Pseudo recovery lines: per owner, each line's time at owner_rp_seq - 1
  // (NaN where that RP has no line), and the owners in append order.
  std::vector<std::vector<double>> line_times_;
  std::vector<ProcessId> line_owners_;
};

}  // namespace rbx
