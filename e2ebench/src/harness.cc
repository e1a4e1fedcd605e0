#include "harness.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/analytic_backend.h"
#include "core/dispatch.h"
#include "core/eval_context.h"
#include "core/lane.h"
#include "recov/journal.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {
namespace {

using rbx::CellFn;
using rbx::CellOutcome;
using rbx::ResultSet;
using rbx::Scenario;

std::int64_t current_tid() {
  return static_cast<std::int64_t>(::syscall(SYS_gettid));
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list again;
  va_copy(again, args);
  std::string out(static_cast<std::size_t>(
                      std::max(0, std::vsnprintf(nullptr, 0, format, args))),
                  '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, again);
  va_end(again);
  va_end(args);
  return out;
}

const rbx::AnalyticBackend& analytic_singleton() {
  const auto* backend =
      dynamic_cast<const rbx::AnalyticBackend*>(&rbx::analytic_backend());
  if (backend == nullptr) {
    throw std::runtime_error("the registered analytic backend is not an "
                             "AnalyticBackend");
  }
  return *backend;
}

bool plan_uses(const rbx::EvalPlan& plan, const char* backend) {
  return std::any_of(plan.steps.begin(), plan.steps.end(),
                     [backend](const rbx::EvalStep& s) {
                       return s.backend == backend;
                     });
}

// What a traced cell function stamps for its cell, from whichever worker
// evaluated it.
struct CellRecord {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t tid;
  std::int32_t analytic_miss;  // the analytic solution cache grew
  std::int32_t done;
};

// One CellRecord per cell of a pass in MAP_SHARED memory, so the stamps a
// forked worker writes are visible to the coordinator.  Mapped before the
// lanes fork; each cell is written by one worker and read after the sweep
// has joined its workers.
class SharedRecords {
 public:
  explicit SharedRecords(std::size_t count)
      : bytes_(std::max<std::size_t>(1, count) * sizeof(CellRecord)) {
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::runtime_error("mmap of the cell records failed");
    }
    records_ = static_cast<CellRecord*>(p);
  }
  ~SharedRecords() { ::munmap(records_, bytes_); }
  SharedRecords(const SharedRecords&) = delete;
  SharedRecords& operator=(const SharedRecords&) = delete;

  CellRecord& operator[](std::size_t i) { return records_[i]; }
  void clear() { std::memset(static_cast<void*>(records_), 0, bytes_); }

 private:
  std::size_t bytes_;
  CellRecord* records_ = nullptr;
};

std::vector<std::unique_ptr<rbx::Lane>> make_lanes(LaneKind kind,
                                                   std::size_t width) {
  std::vector<std::unique_ptr<rbx::Lane>> lanes;
  if (kind == LaneKind::kFork) {
    lanes.push_back(std::make_unique<rbx::ForkLane>(width));
  } else {
    lanes.push_back(std::make_unique<rbx::ThreadLane>(width));
  }
  return lanes;
}

struct SweepStamp {
  std::uint64_t span = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct Pass {
  std::vector<CellOutcome> outcomes;  // every sweep's, in pass order
  double wall_s = 0.0;
  std::vector<SweepStamp> sweeps;
};

// What SweepRunner does for one lane: a HybridExecutor over a thread or
// fork lane, cells evaluated through the workload's plans, and for
// journaled workloads a sweep journal fed from the commit hook.  Driven
// directly because SweepRunner exits the process on a failed cell, and the
// benchmark counts per-cell outcomes instead.
class PassRunner {
 public:
  PassRunner(const Workload& workload, std::size_t width,
             std::string journal_path)
      : workload_(workload),
        executor_(make_lanes(workload.lane, width)),
        journal_path_(std::move(journal_path)) {
    if (workload_.journal) {
      rbx::recov::JournalWriter::Options options;
      options.truncate = true;
      journal_ = std::make_unique<rbx::recov::JournalWriter>(journal_path_,
                                                             options);
    }
  }

  // Runs every sweep of one pass.  With `records`, cells evaluate through
  // a cell function that stamps each evaluate_plan call into them.
  Pass run(Tracer& tracer, std::uint32_t pass_id, SharedRecords* records) {
    Pass out;
    out.outcomes.reserve(workload_.cells_per_pass());
    const std::uint64_t pass_span = tracer.open("bench.pass", 0, pass_id);
    const std::int64_t t0 = now_ns();
    std::size_t offset = 0;
    for (const std::vector<Scenario>& cells : workload_.sweeps) {
      SweepStamp stamp;
      stamp.span = tracer.open("core.sweep", pass_span, pass_id);
      stamp.start_ns = now_ns();
      std::vector<CellOutcome> outcomes =
          run_sweep(cells, tracer, pass_id, stamp.span, records, offset);
      stamp.end_ns = now_ns();
      tracer.close(stamp.span);
      out.sweeps.push_back(stamp);
      std::move(outcomes.begin(), outcomes.end(),
                std::back_inserter(out.outcomes));
      offset += cells.size();
    }
    out.wall_s = seconds_since(t0);
    tracer.close(pass_span);
    return out;
  }

  // Empties the journal between passes (untimed), so a long run does not
  // grow it without bound; the writer appends at the new end.
  void truncate_journal() const {
    if (journal_ != nullptr && ::truncate(journal_path_.c_str(), 0) != 0) {
      throw std::runtime_error("cannot truncate journal '" + journal_path_ +
                               "'");
    }
  }

 private:
  std::vector<CellOutcome> run_sweep(const std::vector<Scenario>& cells,
                                     Tracer& tracer, std::uint32_t pass_id,
                                     std::uint64_t sweep_span,
                                     SharedRecords* records,
                                     std::size_t offset) {
    const rbx::PlanFn& plan_fn = workload_.plan_fn;
    CellFn cell_fn;
    if (records == nullptr) {
      // The cell function SweepRunner's PlanFn overload runs on local lanes.
      cell_fn = [&plan_fn](const Scenario& s, std::size_t i) {
        return rbx::evaluate_plan(plan_fn(s, i), s);
      };
    } else {
      cell_fn = [&plan_fn, records, offset](const Scenario& s,
                                            std::size_t i) {
        const rbx::EvalPlan plan = plan_fn(s, i);
        const std::size_t cached = analytic_singleton().cached_models();
        const std::int64_t start = now_ns();
        ResultSet result = rbx::evaluate_plan(plan, s);
        const std::int64_t end = now_ns();
        CellRecord& rec = (*records)[offset + i];
        rec.start_ns = start;
        rec.end_ns = end;
        rec.tid = current_tid();
        rec.analytic_miss =
            analytic_singleton().cached_models() > cached ? 1 : 0;
        rec.done = 1;
        return result;
      };
    }
    executor_.set_plan_fn(plan_fn);
    if (journal_ == nullptr) {
      return executor_.run(cells, cell_fn);
    }
    const std::uint64_t section = section_++;
    std::int64_t t = now_ns();
    journal_->sweep_begin(section, rbx::grid_fingerprint(cells), cells.size(),
                          "workload=" + workload_.name);
    tracer.add("recov.journal", t, now_ns(), sweep_span, pass_id,
               current_tid());
    rbx::recov::JournalWriter* journal = journal_.get();
    Tracer* traced = tracer.enabled() ? &tracer : nullptr;
    executor_.set_commit_hook([journal, section, traced, sweep_span, pass_id](
                                  std::size_t index,
                                  const CellOutcome& outcome) {
      // As in SweepRunner: only results are journaled, errors re-run.
      if (!outcome.ok()) {
        return;
      }
      const std::int64_t start = traced != nullptr ? now_ns() : 0;
      journal->cell_committed(section, index, outcome.result);
      if (traced != nullptr) {
        traced->add("recov.journal", start, now_ns(), sweep_span, pass_id,
                    current_tid());
      }
    });
    const std::int64_t s0 = now_ns();
    std::vector<CellOutcome> outcomes = executor_.run(cells, cell_fn);
    const double wall_ms = static_cast<double>(now_ns() - s0) * 1e-6;
    rbx::recov::SweepEndStats stats;
    stats.committed_cells = cells.size();
    stats.evaluated_cells = cells.size();
    stats.wall_ms = static_cast<std::uint64_t>(wall_ms);
    stats.cells_per_sec =
        1000.0 * static_cast<double>(cells.size()) / std::max(wall_ms, 1.0);
    t = now_ns();
    journal_->sweep_end(section, stats);
    tracer.add("recov.journal", t, now_ns(), sweep_span, pass_id,
               current_tid());
    return outcomes;
  }

  const Workload& workload_;
  rbx::HybridExecutor executor_;
  std::string journal_path_;
  std::unique_ptr<rbx::recov::JournalWriter> journal_;
  std::uint64_t section_ = 0;
};

struct CrossCheck {
  std::size_t checked = 0;
  std::size_t failed = 0;
};

// The reference pass must be right, not just repeatable: an error or an
// empty result fails, and so does a cell whose Monte-Carlo E[X] is more
// than six CI half-widths (about twelve standard errors) from the
// analytic E[X].
CrossCheck cross_check(const std::vector<CellOutcome>& outcomes) {
  CrossCheck out;
  for (const CellOutcome& o : outcomes) {
    if (!o.ok() || o.result.metrics().empty()) {
      ++out.failed;
      continue;
    }
    if (!o.result.has("mean_interval_x") ||
        !o.result.has("mc_mean_interval_x")) {
      continue;
    }
    ++out.checked;
    const double exact = o.result.value("mean_interval_x");
    const rbx::Metric& mc = o.result.metric("mc_mean_interval_x");
    if (!(std::fabs(exact - mc.value) <= 6.0 * mc.half_width + 1e-9 * exact)) {
      ++out.failed;
    }
  }
  return out;
}

// A field of /proc/self/status in kB ("VmRSS:", "VmHWM:").
long status_kb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtol(line.c_str() + len, nullptr, 10);
    }
  }
  return 0;
}

long children_maxrss_kb() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return usage.ru_maxrss;
}

// Peak resident memory of the coordinator and its forked workers.  A
// worker starts out mapping every page of the coordinator copy-on-write,
// so its peak RSS minus the coordinator's RSS at fork is what it added;
// the tree's peak is the coordinator's VmHWM plus `width` such workers.
// The largest worker may be a width-1 one, which evaluates every cell by
// itself, so the figure is an upper bound.  Tracking wide passes alone is
// not possible in a steady way: the children's maxrss is a running
// maximum, so only the first wide pass gives a clean sample, and a wide
// worker's growth takes one of levels ~3 MB apart from pass to pass.
class MemoryWatch {
 public:
  template <class Fn>
  auto around_pass(Fn&& run_pass) {
    const long at_fork = status_kb("VmRSS:");
    const long before = children_maxrss_kb();
    auto result = run_pass();
    const long after = children_maxrss_kb();
    if (after > before) {
      worker_growth_kb_ = std::max(worker_growth_kb_, after - at_fork);
    }
    return result;
  }

  double peak_mb(std::size_t fork_width) const {
    return static_cast<double>(status_kb("VmHWM:") +
                               static_cast<long>(fork_width) *
                                   std::max(0L, worker_growth_kb_)) /
           1024.0;
  }

 private:
  long worker_growth_kb_ = 0;
};

// --- traced-run analysis ----------------------------------------------------

// Per-layer figures gathered over the traced passes of one run.
struct LayerSamples {
  std::vector<double> wall_s, busy_frac, tail_s, overhead_s;
  std::vector<double> cells;  // per pass, cells the cell function stamped
  std::size_t unstamped = 0;  // results no cell function stamped
  std::size_t analytic_evals = 0, analytic_misses = 0, passes = 0;
  std::size_t mc_evals = 0;
  std::vector<double> mc_ms;
  double costliest_mc_ms = -1.0;
  std::size_t costliest_mc_cell = 0;
  // Replay, accumulated over passes.
  double cb_seal_s = 0, cb_parse_s = 0, rb_seal_s = 0, rb_parse_s = 0;
  double append_s = 0;
  std::size_t wire_bytes = 0, replay_cells = 0, journal_bytes = 0,
              appended = 0;
  std::vector<double> sync_ms, analyze_ms;
  std::map<std::string, std::vector<double>> self_s;  // per layer, per pass
};

// Attributes one traced pass: per-worker busy time from the cell stamps,
// the tail after the first worker ran out of work, and the dispatch
// overhead beyond the busiest worker.
void analyze_pass(const Workload& w, const Pass& pass, SharedRecords& records,
                  std::size_t width, Tracer& tracer, std::uint32_t pass_id,
                  LayerSamples& out) {
  std::size_t offset = 0, stamped = 0;
  double wall = 0, busy = 0, tail = 0, overhead = 0, capacity = 0;
  for (std::size_t k = 0; k < w.sweeps.size(); ++k) {
    const std::vector<Scenario>& cells = w.sweeps[k];
    const SweepStamp& stamp = pass.sweeps[k];
    std::unordered_map<std::int64_t, std::pair<double, std::int64_t>>
        per_worker;  // tid -> (busy seconds, last end)
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellRecord& rec = records[offset + i];
      if (rec.done == 0) {
        // The traced cell function stamps every result it returns, so a
        // result without a stamp was not evaluated the way the pass says.
        out.unstamped += pass.outcomes[offset + i].ok() ? 1 : 0;
        continue;
      }
      ++stamped;
      tracer.add("core.evaluate", rec.start_ns, rec.end_ns, stamp.span,
                 pass_id, rec.tid);
      const double dur = static_cast<double>(rec.end_ns - rec.start_ns) * 1e-9;
      auto& slot = per_worker[rec.tid];
      slot.first += dur;
      slot.second = std::max(slot.second, rec.end_ns);
      busy += dur;
      const rbx::EvalPlan plan = w.plan_fn(cells[i], i);
      if (plan_uses(plan, "analytic")) {
        ++out.analytic_evals;
        out.analytic_misses += rec.analytic_miss != 0 ? 1 : 0;
      }
      if (plan_uses(plan, "monte-carlo")) {
        ++out.mc_evals;
        out.mc_ms.push_back(dur * 1e3);
        if (dur * 1e3 > out.costliest_mc_ms) {
          out.costliest_mc_ms = dur * 1e3;
          out.costliest_mc_cell = offset + i;
        }
      }
    }
    const double sweep_wall =
        static_cast<double>(stamp.end_ns - stamp.start_ns) * 1e-9;
    // A lane raises at most one worker per cell; until the first raised
    // worker finishes its last cell, every worker has work.
    const std::size_t raised = std::min(width, cells.size());
    std::int64_t first_idle = stamp.start_ns;
    double busiest = 0;
    if (per_worker.size() >= raised) {
      first_idle = stamp.end_ns;
      for (const auto& [tid, slot] : per_worker) {
        first_idle = std::min(first_idle, slot.second);
        busiest = std::max(busiest, slot.first);
      }
    } else {
      for (const auto& [tid, slot] : per_worker) {
        busiest = std::max(busiest, slot.first);
      }
    }
    wall += sweep_wall;
    capacity += static_cast<double>(width) * sweep_wall;
    tail += static_cast<double>(stamp.end_ns - first_idle) * 1e-9;
    overhead += sweep_wall - busiest;
    offset += cells.size();
  }
  out.wall_s.push_back(wall);
  out.busy_frac.push_back(capacity > 0 ? busy / capacity : 0.0);
  out.tail_s.push_back(tail);
  out.overhead_s.push_back(overhead);
  out.cells.push_back(static_cast<double>(stamped));
  ++out.passes;
}

// Replays one pass's cells and results through the layers a fork or TCP
// lane crosses: CellBatch/ResultBatch framing in the dispatch core's
// adaptive batch sizes, the sweep journal's appends and fsyncs, and the
// journal analysis pass a resume runs.
void replay_pass(const Workload& w, const std::vector<CellOutcome>& outcomes,
                 std::size_t width, const std::string& journal_path,
                 Tracer& tracer, std::uint32_t pass_id, LayerSamples& out) {
  const std::uint64_t root = tracer.open("bench.replay", 0, pass_id);
  const std::int64_t tid = current_tid();
  // Times `fn`, records it as a span and returns its seconds.
  const auto timed = [&](const char* name, auto&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    tracer.add(name, t0, t1, root, pass_id, tid);
    return static_cast<double>(t1 - t0) * 1e-9;
  };
  std::size_t offset = 0;
  for (const std::vector<Scenario>& cells : w.sweeps) {
    std::size_t next = 0;
    while (next < cells.size()) {
      const std::size_t left = cells.size() - next;
      const std::size_t want = std::min(
          left, std::clamp<std::size_t>(left / (width * 4), 1, 64));
      std::vector<std::byte> cell_frame, result_frame;
      out.cb_seal_s += timed("wire.cellbatch.seal", [&] {
        rbx::CellBatch batch;
        batch.cells.reserve(want);
        for (std::size_t i = next; i < next + want; ++i) {
          batch.cells.push_back(rbx::BatchCell{i, cells[i], false, {}});
        }
        cell_frame = batch.seal();
      });
      out.cb_parse_s += timed("wire.cellbatch.parse", [&] {
        rbx::wire::Frame frame;
        std::size_t used = 0;
        if (!rbx::wire::parse_frame(cell_frame.data(), cell_frame.size(),
                                    &frame, &used)) {
          throw std::runtime_error("replay: incomplete cell batch frame");
        }
        rbx::wire::Reader r(frame.payload);
        if (rbx::CellBatch::decode(r).cells.size() != want) {
          throw std::runtime_error("replay: cell batch lost cells");
        }
        r.expect_done();
      });
      out.rb_seal_s += timed("wire.resultbatch.seal", [&] {
        rbx::ResultBatch batch;
        batch.entries.reserve(want);
        for (std::size_t i = next; i < next + want; ++i) {
          batch.entries.push_back({i, outcomes[offset + i]});
        }
        result_frame = batch.seal();
      });
      out.rb_parse_s += timed("wire.resultbatch.parse", [&] {
        rbx::wire::Frame frame;
        std::size_t used = 0;
        if (!rbx::wire::parse_frame(result_frame.data(), result_frame.size(),
                                    &frame, &used)) {
          throw std::runtime_error("replay: incomplete result batch frame");
        }
        rbx::wire::Reader r(frame.payload);
        if (rbx::ResultBatch::decode(r).entries.size() != want) {
          throw std::runtime_error("replay: result batch lost cells");
        }
        r.expect_done();
      });
      out.wire_bytes += cell_frame.size() + result_frame.size();
      next += want;
    }
    offset += cells.size();
  }
  out.replay_cells += offset;

  // The journal's write side: boundary records and every sync_every-th
  // cell append fsync; those calls are the fsync samples.
  std::size_t committed = 0;
  {
    rbx::recov::JournalWriter::Options options;
    options.truncate = true;
    const std::size_t sync_every = options.sync_every;
    rbx::recov::JournalWriter journal(journal_path, options);
    offset = 0;
    for (std::size_t s = 0; s < w.sweeps.size(); ++s) {
      const std::vector<Scenario>& cells = w.sweeps[s];
      out.sync_ms.push_back(1e3 * timed("recov.journal.sync", [&] {
        journal.sweep_begin(s, rbx::grid_fingerprint(cells), cells.size(),
                            "workload=" + w.name);
      }));
      // One span for the sweep's appends; each call is timed on its own
      // to pick out the fsync-bearing ones.
      out.append_s += timed("recov.journal.append", [&] {
        std::size_t since_sync = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const CellOutcome& o = outcomes[offset + i];
          if (!o.ok()) {
            continue;
          }
          const std::int64_t t0 = now_ns();
          journal.cell_committed(s, i, o.result);
          ++committed;
          if (++since_sync == sync_every) {
            out.sync_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
            since_sync = 0;
          }
        }
      });
      out.sync_ms.push_back(1e3 * timed("recov.journal.sync", [&] {
        journal.sweep_end(s, rbx::recov::SweepEndStats{});
      }));
      offset += cells.size();
    }
  }
  out.appended += committed;
  struct stat st {};
  if (::stat(journal_path.c_str(), &st) == 0) {
    out.journal_bytes += static_cast<std::size_t>(st.st_size);
  }
  // The read side: the analysis pass a --resume runs over the journal.
  out.analyze_ms.push_back(1e3 * timed("recov.analyze", [&] {
    const rbx::recov::JournalAnalysis analysis =
        rbx::recov::analyze_journal(journal_path);
    if (analysis.committed_cells() != committed) {
      throw std::runtime_error("replay: journal analysis lost cells");
    }
  }));
  tracer.close(root);
}

// --- probes run once per traced run ------------------------------------------

std::vector<Scenario> distinct_rate_points(const Workload& w,
                                           std::size_t limit) {
  std::set<std::string> seen;
  std::vector<Scenario> points;
  for (const auto& sweep : w.sweeps) {
    for (const Scenario& s : sweep) {
      rbx::wire::Writer key;
      Scenario(s).seed(0).samples(1).streams(1).encode(key);
      const auto* bytes = reinterpret_cast<const char*>(key.data().data());
      if (seen.emplace(bytes, key.size()).second) {
        points.push_back(s);
        if (points.size() == limit) {
          return points;
        }
      }
    }
  }
  return points;
}

struct AnalyticProbe {
  double cold_us_p50 = 0.0;
  double warm_us_p50 = 0.0;
};

// Cold: a fresh uncached AnalyticBackend solves each distinct rate point.
// Warm: a private caching backend, filled first, answers the pass's cells
// (the singleton the lanes use is left alone, so later forks stay cold).
AnalyticProbe probe_analytic(const Workload& w, Tracer& tracer) {
  const std::vector<Scenario> points = distinct_rate_points(w, 64);
  AnalyticProbe probe;
  std::vector<double> cold_us, warm_us;
  const rbx::AnalyticBackend cold(false);
  const std::uint64_t root = tracer.open("bench.probe", 0, 0);
  for (const Scenario& p : points) {
    const std::int64_t t0 = now_ns();
    (void)cold.evaluate(p);
    const std::int64_t t1 = now_ns();
    tracer.add("core.analytic.cold", t0, t1, root, 0, current_tid());
    cold_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  const rbx::AnalyticBackend warm(true);
  for (const Scenario& p : points) {
    (void)warm.evaluate(p);
  }
  std::size_t timed = 0;
  for (const auto& sweep : w.sweeps) {
    for (const Scenario& s : sweep) {
      if (timed++ == 4096) {
        break;
      }
      const std::int64_t t0 = now_ns();
      (void)warm.evaluate(s);
      const std::int64_t t1 = now_ns();
      tracer.add("core.analytic.warm", t0, t1, root, 0, current_tid());
      warm_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
  }
  tracer.close(root);
  probe.cold_us_p50 = median(cold_us);
  probe.warm_us_p50 = median(warm_us);
  return probe;
}

struct StreamProbe {
  double speedup = 0.0;
  std::vector<double> seq_ms;  // budget-1 evaluation times
  bool identical = true;       // same bytes at both budgets
};

// The same streamed Monte-Carlo cell at a thread budget of `width` and of
// 1.  The cell is the pass's costliest Monte-Carlo cell (a fixed async cell
// when the pass has none) with at least four streams, its budget trimmed
// so one sequential evaluation takes about 0.15 s.
StreamProbe probe_streams(Scenario cell, std::size_t width, Tracer& tracer) {
  cell.streams(std::max<std::size_t>(4, cell.streams()));
  const auto eval = [&](std::size_t budget, std::uint64_t* digest) {
    rbx::EvalContextScope scope(rbx::EvalContext{budget});
    const std::int64_t t0 = now_ns();
    const ResultSet r = rbx::monte_carlo_backend().evaluate(cell);
    const std::int64_t t1 = now_ns();
    tracer.add("core.mc.stream", t0, t1, 0, 0, current_tid());
    if (digest != nullptr) {
      *digest = result_digest(r);
    }
    return static_cast<double>(t1 - t0) * 1e-9;
  };
  const std::size_t full = cell.samples();
  cell.samples(std::max<std::size_t>(1, full / 8));
  const double pilot = eval(1, nullptr);
  cell.samples(std::clamp<std::size_t>(
      static_cast<std::size_t>(static_cast<double>(cell.samples()) * 0.15 /
                               std::max(pilot, 1e-6)),
      1, full));
  StreamProbe probe;
  std::vector<double> par;
  for (int round = 0; round < 3; ++round) {
    std::uint64_t a = 0, b = 0;
    probe.seq_ms.push_back(1e3 * eval(1, &a));
    par.push_back(1e3 * eval(width, &b));
    probe.identical = probe.identical && a == b;
  }
  probe.speedup = median(probe.seq_ms) / median(par);
  return probe;
}

// --- the two runs -----------------------------------------------------------

// Timed passes per lane, even when they take longer than `seconds`.
constexpr std::size_t kMinPasses = 3;

struct Context {
  const RunConfig& cfg;
  std::size_t width;
  RunReport& report;
  std::vector<std::uint64_t> reference;  // digests of the width-1 pass
  MemoryWatch memory;

  Pass run(PassRunner& runner, Tracer& tracer, std::uint32_t pass_id,
           SharedRecords* records) {
    return memory.around_pass(
        [&] { return runner.run(tracer, pass_id, records); });
  }

  void check(const std::vector<CellOutcome>& outcomes) {
    report.attempted += outcomes.size();
    report.failed += count_failed_cells(reference, outcomes);
  }

  // One untraced pass, checked; the journal is emptied first (untimed) so
  // disk use stays flat.  Returns the pass's wall seconds.
  double plain_pass(PassRunner& runner) {
    runner.truncate_journal();
    Tracer off(false);
    const Pass pass = run(runner, off, 0, nullptr);
    check(pass.outcomes);
    return pass.wall_s;
  }
  void metric(const std::string& name, double value, const char* unit) {
    report.metrics.push_back({name, value, unit});
  }
  void line(std::string text) { report.lines.push_back(std::move(text)); }
};

// What one set-up builds: the generated cells and the runner (lanes,
// journal file) that runs them.
struct SetUp {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<PassRunner> runner;  // refers to *workload
  double seconds = 0.0;
};

SetUp set_up(const RunConfig& cfg, std::size_t width,
             const std::string& journal) {
  SetUp s;
  const std::int64_t t0 = now_ns();
  s.workload = std::make_unique<Workload>(
      make_workload(cfg.workload, cfg.seed, cfg.scale));
  s.runner = std::make_unique<PassRunner>(*s.workload, width, journal);
  s.seconds = seconds_since(t0);
  return s;
}

std::string path_in(const RunConfig& cfg, const char* suffix) {
  return cfg.work_dir + "/" + cfg.workload + "-" + std::to_string(::getpid()) +
         suffix;
}

void end_to_end_run(Context& ctx, const Workload& w, PassRunner& wide,
                    PassRunner& narrow, double first_setup_s) {
  std::vector<double> setup_s = {first_setup_s};
  std::vector<double> wide_s, narrow_s;
  const std::string setup_journal = path_in(ctx.cfg, ".setup.rbxj");
  // One more set-up after every pass, torn down untimed.  Each then starts,
  // as a user's first set-up does, on caches that work left cold; set-ups
  // back to back would time a hot loop instead, whose median moved by up to
  // 2x from one process to the next.
  const auto timed_set_up = [&] {
    setup_s.push_back(set_up(ctx.cfg, ctx.width, setup_journal).seconds);
  };
  const std::int64_t t0 = now_ns();
  while (wide_s.size() < kMinPasses || seconds_since(t0) < ctx.cfg.seconds) {
    wide_s.push_back(ctx.plain_pass(wide));
    timed_set_up();
    narrow_s.push_back(ctx.plain_pass(narrow));
    timed_set_up();
  }
  ::unlink(setup_journal.c_str());
  double wide_total_s = 0;
  for (double s : wide_s) {
    wide_total_s += s;
  }
  const Quartiles wq = quartiles(wide_s);
  const Quartiles nq = quartiles(narrow_s);
  ctx.metric("setup_s", median(setup_s), "s");
  ctx.metric("pass_s", median(wide_s), "s");
  // Every committed cell over all timed wide passes, as the journal's
  // sweep-end record counts cells per second over its sweep.
  ctx.metric("cells_per_s",
             static_cast<double>(w.cells_per_pass() * wide_s.size()) /
                 wide_total_s,
             "1/s");
  ctx.metric("speedup_vs_1t", median(narrow_s) / median(wide_s), "x");
  ctx.metric("peak_rss_mb",
             ctx.memory.peak_mb(w.lane == LaneKind::kFork ? ctx.width : 0),
             "MB");
  ctx.line(fmt("passes: %zu at width %zu (q1 %.4f / median %.4f / q3 %.4f "
               "s), %zu at width 1 (q1 %.4f / median %.4f / q3 %.4f s)",
               wide_s.size(), ctx.width, wq.q1, wq.q2, wq.q3, narrow_s.size(),
               nq.q1, nq.q2, nq.q3));
  const Quartiles sq = quartiles(setup_s);
  ctx.line(fmt("set-ups: %zu (q1 %.4g / median %.4g / q3 %.4g s)",
               setup_s.size(), sq.q1, sq.q2, sq.q3));
}

void traced_run(Context& ctx, const Workload& w, PassRunner& wide) {
  Tracer tracer(true);
  SharedRecords records(w.cells_per_pass());
  LayerSamples layers;
  std::vector<double> plain_s, traced_s;
  const std::string replay_journal = path_in(ctx.cfg, ".replay.rbxj");
  std::uint32_t pass_id = 0;
  const std::int64_t t0 = now_ns();
  while (traced_s.size() < kMinPasses || seconds_since(t0) < ctx.cfg.seconds) {
    plain_s.push_back(ctx.plain_pass(wide));

    ++pass_id;
    wide.truncate_journal();
    records.clear();
    const Pass q = ctx.run(wide, tracer, pass_id, &records);
    traced_s.push_back(q.wall_s);
    ctx.check(q.outcomes);
    analyze_pass(w, q, records, ctx.width, tracer, pass_id, layers);
    replay_pass(w, q.outcomes, ctx.width, replay_journal, tracer, pass_id,
                layers);
    for (const auto& [name, s] : tracer.self_seconds(pass_id)) {
      // Layers are the first name component, with core split into the
      // sweep (dispatch, lanes, merge) and the evaluations it waits for.
      const std::string layer = name.rfind("core.", 0) == 0
                                    ? name.substr(0, name.find('.', 5))
                                    : name.substr(0, name.find('.'));
      if (layer != "bench") {
        layers.self_s[layer].resize(pass_id, 0.0);
        layers.self_s[layer][pass_id - 1] += s;
      }
    }
  }
  ::unlink(replay_journal.c_str());
  // The cell and eval counts below are fixed by the workload once every
  // cell is stamped; an unstamped cell fails the run instead of moving them.
  ctx.report.failed += layers.unstamped;

  const AnalyticProbe analytic = probe_analytic(w, tracer);
  Scenario stream_cell = Scenario::symmetric(4, 1.0, 2.0 / 3.0)
                             .seed(ctx.cfg.seed)
                             .samples(4000);
  if (layers.costliest_mc_ms >= 0) {
    std::size_t index = layers.costliest_mc_cell;
    for (const auto& sweep : w.sweeps) {
      if (index < sweep.size()) {
        stream_cell = sweep[index];
        break;
      }
      index -= sweep.size();
    }
  }
  const StreamProbe streams = probe_streams(stream_cell, ctx.width, tracer);
  ctx.report.attempted += 1;
  ctx.report.failed += streams.identical ? 0 : 1;

  const double passes = static_cast<double>(layers.passes);
  const double replayed = static_cast<double>(layers.replay_cells);
  // A pass without Monte-Carlo cells leaves des/ idle; its eval figures
  // then come from the stream probe's sequential evaluations.
  const std::vector<double>& mc_ms =
      layers.mc_ms.empty() ? streams.seq_ms : layers.mc_ms;
  ctx.metric("core.sweep.wall_s", median(layers.wall_s), "s");
  ctx.metric("core.dispatch.cells", median(layers.cells), "count");
  ctx.metric("core.dispatch.worker_busy_frac", median(layers.busy_frac),
             "ratio");
  ctx.metric("core.dispatch.tail_s", median(layers.tail_s), "s");
  ctx.metric("core.dispatch.overhead_s", median(layers.overhead_s), "s");
  ctx.metric("core.analytic.evals",
             static_cast<double>(layers.analytic_evals) / passes, "count");
  ctx.metric("core.analytic.eval_us_p50", analytic.warm_us_p50, "us");
  ctx.metric("core.analytic.cold_solve_us_p50", analytic.cold_us_p50, "us");
  ctx.metric("core.analytic.cache_hit_frac",
             layers.analytic_evals == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(layers.analytic_misses) /
                             static_cast<double>(layers.analytic_evals),
             "ratio");
  ctx.metric("core.mc.evals", static_cast<double>(layers.mc_evals) / passes,
             "count");
  ctx.metric("core.mc.eval_ms_p50", median(mc_ms), "ms");
  ctx.metric("core.mc.eval_ms_max", *std::max_element(mc_ms.begin(),
                                                      mc_ms.end()),
             "ms");
  ctx.metric("core.mc.stream_speedup", streams.speedup, "x");
  ctx.metric("wire.cellbatch_seal_us", 1e6 * layers.cb_seal_s / replayed,
             "us");
  ctx.metric("wire.cellbatch_parse_us", 1e6 * layers.cb_parse_s / replayed,
             "us");
  ctx.metric("wire.resultbatch_seal_us", 1e6 * layers.rb_seal_s / replayed,
             "us");
  ctx.metric("wire.resultbatch_parse_us", 1e6 * layers.rb_parse_s / replayed,
             "us");
  ctx.metric("wire.bytes_per_cell",
             static_cast<double>(layers.wire_bytes) / replayed, "B");
  ctx.metric("recov.journal_append_us",
             1e6 * layers.append_s /
                 static_cast<double>(std::max<std::size_t>(1, layers.appended)),
             "us");
  ctx.metric("recov.journal_sync_ms", median(layers.sync_ms), "ms");
  ctx.metric("recov.journal_bytes_per_cell",
             static_cast<double>(layers.journal_bytes) / replayed, "B");
  ctx.metric("recov.analyze_ms", median(layers.analyze_ms), "ms");
  ctx.metric("trace.overhead_frac", median(traced_s) / median(plain_s) - 1.0,
             "ratio");
  for (const char* layer : {"core.sweep", "core.evaluate", "wire", "recov"}) {
    std::vector<double> per_pass = layers.self_s[layer];
    per_pass.resize(layers.passes, 0.0);
    ctx.metric(std::string("self.") + layer + "_s", median(per_pass), "s");
  }
  ctx.line(fmt("traced passes: %zu (plus %zu untraced), %zu spans",
               traced_s.size(), plain_s.size(), tracer.spans().size()));

  const std::string trace_path = ctx.cfg.work_dir + "/" + ctx.cfg.workload +
                                 "-seed" + std::to_string(ctx.cfg.seed) +
                                 ".trace.json";
  // The first few traced passes show every span; writing all of them
  // would cost hundreds of MB on analytic_fanout.
  constexpr std::uint32_t kWrittenPasses = 2;
  tracer.write_chrome_json(trace_path, kWrittenPasses);
  ctx.line(fmt("spans of the first %u traced passes written to %s",
               kWrittenPasses, trace_path.c_str()));
}

}  // namespace

RunReport run_benchmark(const RunConfig& cfg) {
  RunReport report;
  const std::size_t width = rbx::default_parallelism();
  Context ctx{cfg, width, report, {}, {}};
  const std::string wide_journal = path_in(cfg, ".wide.rbxj");
  const std::string narrow_journal = path_in(cfg, ".narrow.rbxj");

  // Set-up: generate the cells and build the runner (lanes, journal file).
  SetUp main = set_up(cfg, width, wide_journal);
  const Workload& w = *main.workload;
  PassRunner& wide = *main.runner;
  PassRunner narrow(w, 1, narrow_journal);
  Tracer off(false);

  // An untimed warm-up pass: the first pass after idle runs slow.
  std::vector<std::uint64_t> warm;
  {
    const Pass pass = ctx.run(wide, off, 0, nullptr);
    warm = digest_all(pass.outcomes);
    ctx.line(fmt("warm-up pass: %.4f s at width %zu (untimed)", pass.wall_s,
                 width));
  }

  // The width-1 reference every later pass must reproduce byte for byte.
  {
    const Pass pass = ctx.run(narrow, off, 0, nullptr);
    ctx.reference = digest_all(pass.outcomes);
    const CrossCheck checked = cross_check(pass.outcomes);
    report.failed += checked.failed;
    ctx.line(fmt("reference pass: %.4f s at width 1, %zu cells, %zu "
                 "Monte-Carlo E[X] cross-checked against the analytic chain",
                 pass.wall_s, pass.outcomes.size(), checked.checked));
  }
  report.attempted += 2 * ctx.reference.size();
  for (std::size_t i = 0; i < ctx.reference.size(); ++i) {
    if (i >= warm.size() || warm[i] == 0 || warm[i] != ctx.reference[i]) {
      ++report.failed;
    }
  }

  if (cfg.trace) {
    traced_run(ctx, w, wide);
  } else {
    end_to_end_run(ctx, w, wide, narrow, main.seconds);
  }
  ::unlink(wide_journal.c_str());
  ::unlink(narrow_journal.c_str());

  ctx.line(fmt("%-34s %.6g ratio (%zu of %zu cells failed)",
               "failed_cell_frac",
               static_cast<double>(report.failed) /
                   static_cast<double>(std::max<std::size_t>(1,
                                                             report.attempted)),
               report.failed, report.attempted));
  for (const MetricValue& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.correct = false;
      ctx.line("metric " + m.name + " is not finite");
    }
  }
  report.correct = report.correct && report.failed == 0;
  return report;
}

std::string report_json(const RunReport& report) {
  std::string out = fmt("{\"correct\": %s, \"attempted\": %zu, \"failed\": "
                        "%zu, \"metrics\": {",
                        report.correct ? "true" : "false", report.attempted,
                        report.failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const MetricValue& m = report.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    out += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  out += "}}";
  return out;
}

}  // namespace e2e
