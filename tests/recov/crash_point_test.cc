// Crash points: a journaled sweep SIGKILLed at every append boundary -
// right after each cell commit, and right before each record append -
// resumes through plan_resume and the pre-committed seam to the
// uninterrupted run's bytes, evaluates exactly the cells its journal
// lacks, and leaves exactly one committed record per cell across the
// killed and the resumed run: each commit is detectable, it took effect
// once or it re-runs.  The kill is a real SIGKILL of a forked child, so
// the killed journal holds what reached the file and nothing else.
//
// An OS crash can lose what was written but not yet fsynced; whatever
// the sync policy, what survives is a record prefix of what was written.
// Cutting each killed journal at every record boundary covers those
// states, and every cut must resume the same way.
#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/executor.h"
#include "core/lane.h"
#include "core/result.h"
#include "core/scenario.h"
#include "recov/journal.h"
#include "recov/resume.h"
#include "support/wire.h"

namespace rbx {
namespace recov {
namespace {

constexpr std::size_t kCells = 12;

std::vector<Scenario> crash_grid() {
  std::vector<Scenario> cells;
  for (std::size_t i = 0; i < kCells; ++i) {
    cells.push_back(
        Scenario::symmetric(2 + i % 3, 0.5 + 0.25 * static_cast<double>(i),
                            1.0)
            .seed(100 + i));
  }
  return cells;
}

// A cheap deterministic cell: its bytes depend on the scenario and index.
ResultSet evaluate_cell(const Scenario& s, std::size_t i) {
  ResultSet r("crash-point", s.label());
  r.set("n", static_cast<double>(s.n()));
  r.set("value", 1.0 / (1.0 + static_cast<double>(i)), 1e-3, 100 + i);
  return r;
}

std::vector<std::byte> bytes_of(const ResultSet& result) {
  wire::Writer w;
  result.encode(w);
  return w.take();
}

// Where a journaled sweep kills itself: after its k-th cell commit, or
// before its k-th record append (the sweep begin is append 1 and the
// sweep end append kCells + 2); k counts from 1.
enum class Point { kNone, kAfterCommit, kBeforeAppend };
struct KillAt {
  Point point = Point::kNone;
  std::size_t k = 0;
};

void crash_point(const KillAt& kill, Point point, std::size_t count) {
  if (kill.point == point && kill.k == count) {
    ::raise(SIGKILL);
  }
}

struct SweepRun {
  std::vector<CellOutcome> outcomes;
  std::vector<std::size_t> evaluated;  // ascending
};

// One journaled sweep, the way SweepRunner runs it: begin, the cells on a
// two-thread lane with the commit hook appending each result, end.  A
// resumed run passes its plan: the plan's committed cells are seeded and
// only its lost cells run.
SweepRun journaled_sweep(const std::vector<Scenario>& cells,
                         const std::string& path,
                         const JournalWriter::Options& options,
                         const ResumePlan* plan, const KillAt& kill) {
  JournalWriter journal(path, options);
  std::size_t appends = 0;
  std::size_t commits = 0;
  crash_point(kill, Point::kBeforeAppend, ++appends);
  journal.sweep_begin(0, grid_fingerprint(cells), cells.size(),
                      "crash points");

  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(std::make_unique<ThreadLane>(2));
  DispatchOptions dispatch;
  dispatch.quiet = true;
  HybridExecutor executor(std::move(lanes), dispatch);
  if (plan != nullptr) {
    std::vector<CellOutcome> seeded(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (plan->committed[i] != 0) {
        seeded[i].result = plan->results[i];
      }
    }
    executor.set_precommitted(plan->committed, std::move(seeded));
  }
  executor.set_commit_hook([&](std::size_t i, const CellOutcome& outcome) {
    crash_point(kill, Point::kBeforeAppend, ++appends);
    journal.cell_committed(0, i, outcome.result);
    crash_point(kill, Point::kAfterCommit, ++commits);
  });
  SweepRun run;
  std::mutex mu;
  run.outcomes =
      executor.run(cells, [&run, &mu](const Scenario& s, std::size_t i) {
        {
          const std::lock_guard<std::mutex> lock(mu);
          run.evaluated.push_back(i);
        }
        return evaluate_cell(s, i);
      });
  crash_point(kill, Point::kBeforeAppend, ++appends);
  journal.sweep_end(0, SweepEndStats{commits, commits, 0, 0.0});
  std::sort(run.evaluated.begin(), run.evaluated.end());
  return run;
}

// The process's thread count: fork() copies only the calling thread, so
// a child forked beside another thread could inherit a lock it holds.
std::size_t thread_count() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) {
    return 0;
  }
  std::size_t threads = 0;
  while (const dirent* entry = ::readdir(dir)) {
    threads += entry->d_name[0] != '.' ? 1 : 0;
  }
  ::closedir(dir);
  return threads;
}

// Committed records per cell in a journal's valid prefix, duplicates
// counted (the analysis pass keeps only the first).
std::vector<std::size_t> commit_records(const std::vector<std::byte>& bytes) {
  std::vector<std::size_t> count(kCells, 0);
  for (const wire::Frame& record :
       scan_records(bytes.data(), bytes.size()).records) {
    if (record.type == kRecordCellCommitted) {
      wire::Reader r(record.payload);
      r.u64();  // sweep
      const std::uint64_t cell = r.u64();
      if (cell < kCells) {
        ++count[cell];
      }
    }
  }
  return count;
}

class CrashPointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "crash_point.rbxj";
    resume_path_ = ::testing::TempDir() + "crash_point_resume.rbxj";
    JournalWriter::Options fresh;
    fresh.truncate = true;
    const SweepRun run = journaled_sweep(cells_, path_, fresh, nullptr, {});
    ASSERT_EQ(run.outcomes.size(), kCells);
    for (const CellOutcome& outcome : run.outcomes) {
      ASSERT_TRUE(outcome.ok()) << outcome.error;
      reference_.push_back(bytes_of(outcome.result));
    }
    EXPECT_EQ(commit_records(read_file_bytes(path_, "journal")),
              std::vector<std::size_t>(kCells, 1));
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(resume_path_.c_str());
  }

  // Runs the sweep in a child that SIGKILLs itself at `kill` and returns
  // the journal it left.
  std::vector<std::byte> killed_journal(const KillAt& kill) {
    // Fork only while this process has no other thread.
    EXPECT_EQ(thread_count(), 1u);
    const pid_t pid = ::fork();
    if (pid == 0) {
      try {
        JournalWriter::Options fresh;
        fresh.truncate = true;
        journaled_sweep(cells_, path_, fresh, nullptr, kill);
      } catch (...) {
        ::_exit(3);
      }
      ::_exit(0);  // the crash point never fired
    }
    EXPECT_GT(pid, 0);
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "the child was not killed at its crash point (status " << status
        << ")";
    return read_file_bytes(path_, "killed journal");
  }

  // Resumes from `journal` - a killed run's file or a prefix of one - and
  // checks the recovery contract.
  void expect_resume(const std::vector<std::byte>& journal,
                     const std::string& where) {
    SCOPED_TRACE(where);
    wire::write_file(resume_path_, journal);
    const JournalAnalysis before = analyze_journal(resume_path_);
    std::vector<const SweepState*> states;
    if (!before.sweeps.empty()) {
      states.push_back(&before.sweeps[0]);
    }
    const ResumePlan plan =
        plan_resume(states, kCells, grid_fingerprint(cells_));
    std::vector<std::size_t> absent;
    for (std::size_t i = 0; i < kCells; ++i) {
      if (before.sweeps.empty() || !before.sweeps[0].has_cell(i)) {
        absent.push_back(i);
      }
    }

    JournalWriter::Options append;
    if (before.torn_tail) {
      append.truncate_at = before.valid_bytes;
    }
    ASSERT_EQ(thread_count(), 1u);
    const SweepRun run =
        journaled_sweep(cells_, resume_path_, append, &plan, {});

    // The resumed outcomes are the uninterrupted run's bytes.
    ASSERT_EQ(run.outcomes.size(), kCells);
    for (std::size_t i = 0; i < kCells; ++i) {
      ASSERT_TRUE(run.outcomes[i].ok()) << run.outcomes[i].error;
      EXPECT_EQ(bytes_of(run.outcomes[i].result), reference_[i])
          << "cell " << i;
    }
    // Exactly the cells absent from the journal were evaluated.
    EXPECT_EQ(run.evaluated, absent);
    // Each cell has one committed record across both runs, and the
    // sweep ends complete.
    const std::vector<std::byte> after =
        read_file_bytes(resume_path_, "resumed journal");
    EXPECT_EQ(commit_records(after), std::vector<std::size_t>(kCells, 1));
    const JournalAnalysis done =
        analyze_journal_bytes(after.data(), after.size());
    EXPECT_FALSE(done.torn_tail);
    ASSERT_EQ(done.sweeps.size(), 1u);
    EXPECT_TRUE(done.sweeps[0].ended);
    EXPECT_EQ(done.sweeps[0].committed.size(), kCells);
  }

  // Kills the sweep at `kill`, requires the killed journal to hold every
  // record appended before the kill, and resumes from each of its
  // record-boundary cuts.
  void kill_and_resume(const KillAt& kill, std::size_t records_written) {
    const std::string where =
        std::string(kill.point == Point::kAfterCommit ? "after commit "
                                                      : "before append ") +
        std::to_string(kill.k);
    SCOPED_TRACE(where);
    const std::vector<std::byte> killed = killed_journal(kill);
    const RecordScan scan = scan_records(killed.data(), killed.size());
    // A process crash loses nothing that was written.
    EXPECT_FALSE(scan.torn_tail);
    ASSERT_EQ(scan.records.size(), records_written);

    // The last cut is the whole killed journal.
    std::size_t boundary = 0;
    for (std::size_t r = 0; r <= scan.records.size(); ++r) {
      expect_resume(std::vector<std::byte>(
                        killed.begin(),
                        killed.begin() +
                            static_cast<std::ptrdiff_t>(boundary)),
                    "cut after " + std::to_string(r) + " record(s)");
      if (r < scan.records.size()) {
        boundary += seal_record(scan.records[r].type,
                                scan.records[r].payload)
                        .size();
      }
    }
    EXPECT_EQ(boundary, killed.size());
  }

  const std::vector<Scenario> cells_ = crash_grid();
  std::string path_;
  std::string resume_path_;
  std::vector<std::vector<std::byte>> reference_;
};

TEST_F(CrashPointTest, KillAfterEveryCellCommitResumesBitwise) {
  for (std::size_t k = 1; k <= kCells; ++k) {
    // The sweep begin and k cell records reached the file.
    kill_and_resume({Point::kAfterCommit, k}, 1 + k);
  }
}

TEST_F(CrashPointTest, KillBeforeEveryAppendResumesBitwise) {
  for (std::size_t k = 1; k <= kCells + 2; ++k) {
    kill_and_resume({Point::kBeforeAppend, k}, k - 1);
  }
}

}  // namespace
}  // namespace recov
}  // namespace rbx
