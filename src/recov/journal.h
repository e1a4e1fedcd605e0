// SweepJournal: an append-only write-ahead log that makes sweeps
// crash-durable.
//
// The paper's whole subject is backward error recovery - checkpoint,
// detect, roll back, retry - and this subsystem applies that discipline to
// the sweep harness itself.  A coordinator that journals its sweep can be
// SIGKILLed at 99% and restarted with `--resume=LOG`: the committed cells
// are recovered from the log and only the losers are re-evaluated, with
// output bitwise identical to an uninterrupted run (per-cell seeds pin
// every evaluation, so a recovered result and a re-evaluated one are the
// same bytes).
//
// On disk a journal is a sequence of records; each record is a standard
// wire frame (support/wire.h: magic | version | type | length | payload)
// followed by a CRC-32 of the frame bytes:
//
//   record  := frame | crc32 u32
//   journal := record*
//
//   kRecordSweepBegin      sweep index, grid fingerprint, total cells,
//                          options digest - appended before any cell of a
//                          sweep commits; re-appended (idempotently) by a
//                          resumed run, so a journal may carry several
//                          begins for one sweep and the analysis pass
//                          treats later ones as consistency checks;
//   kRecordCellCommitted   sweep index, cell index, encoded ResultSet -
//                          appended the moment a cell's outcome becomes
//                          final in the dispatch loop;
//   kRecordSweepEnd        sweep index + SweepEndStats (cells evaluated,
//                          wall-clock, cells/sec) - the sweep completed;
//                          the stats seed the repo's perf trajectory.
//
// Reading is an ARIES-style *analysis pass* (the shape of SNIPPETS.md's
// recov.cc: scan the log once, classify winners and losers): records are
// accepted while framing and CRC hold, and the scan stops at the first
// truncated, torn or corrupt record - a journal cut at any byte boundary
// yields the longest valid prefix, never garbage and never an exception
// for tail damage (tests/recov/journal_test.cc truncates at every byte).
// The "redo pass" is trivial by construction: committed results are
// final-state (full ResultSets, not deltas), so redo = copy them into the
// result vector; the "undo pass" is the re-evaluation of the losers.
//
// Durability: every record is written to the file the moment it is
// appended, so a killed process loses nothing it appended.  fsync is
// bounded by age, not by count: sweep boundaries always sync, and a cell
// append syncs once the oldest unsynced record is
// JournalWriter::kMaxSyncAge (50 ms) old.  So an OS crash loses at most
// the commits appended in the 50 ms before the last append - they are
// simply re-evaluated on resume, to the same bytes - and a sweep of cells
// slower than that leaves only its newest record unsynced.
//
// The worker's result cache (recov/cache.h) appends its kRecordCacheEntry
// records through JournalWriter too, so both files share one open,
// torn-tail cut, age-bounded fsync and sync on close.  A failed open,
// cut, append or fsync throws wire::Error naming the file.
//
// A `--shard=i/k` run journals the cells it owns, so `--merge` is a resume
// over several journals (recov/resume.h).  `--shard-serve` streams the
// same records as bare frames (TCP delivers them intact: no CRC), which
// the merge folds in one at a time with analyze_record().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/result.h"
#include "support/wire.h"

namespace rbx {
namespace recov {

// Journal record frame types (disjoint from the executor data frames 1..2,
// the cluster control frames 16..20 and the fleet frames 48..53, so a
// journal fed to a frame stream - or vice versa - is rejected by type, not
// misread).
inline constexpr std::uint16_t kRecordSweepBegin = 32;
inline constexpr std::uint16_t kRecordCellCommitted = 33;
inline constexpr std::uint16_t kRecordSweepEnd = 34;
inline constexpr std::uint16_t kRecordCacheEntry = 35;  // recov/cache.h

// CRC-32 (IEEE 802.3, reflected) over `size` bytes.
std::uint32_t crc32(const void* data, std::size_t size);

// One record sealed for appending: frame + CRC trailer.
std::vector<std::byte> seal_record(std::uint16_t type,
                                   const std::vector<std::byte>& payload);

// The raw record scan shared by the sweep journal and the result cache:
// accepts records while framing and CRC hold, stops at the first
// truncated, torn or corrupt one.  Never throws - tail damage just ends
// the scan at the last valid boundary.
struct RecordScan {
  std::vector<wire::Frame> records;
  std::size_t valid_bytes = 0;
  bool torn_tail = false;
};
RecordScan scan_records(const std::byte* data, std::size_t size);

// Reads a whole file into memory; throws wire::Error naming `what` when
// it cannot be opened or read.
std::vector<std::byte> read_file_bytes(const std::string& path,
                                       const char* what);

// Perf counters of one completed sweep, carried in kRecordSweepEnd.
struct SweepEndStats {
  std::uint64_t committed_cells = 0;  // final committed count of the sweep
  std::uint64_t evaluated_cells = 0;  // evaluated by *this* run (a resumed
                                      // run evaluates only the losers)
  std::uint64_t wall_ms = 0;          // this run's evaluation wall-clock
  double cells_per_sec = 0.0;         // evaluated_cells over wall_ms
};

// The three sweep records as bare frames (type + payload): JournalWriter
// seals and appends them, a --shard-serve run sends them as they are.
wire::Frame sweep_begin_record(std::uint64_t sweep, std::uint64_t fingerprint,
                               std::uint64_t total_cells,
                               const std::string& options);
wire::Frame cell_committed_record(std::uint64_t sweep, std::uint64_t cell,
                                  const ResultSet& result);
wire::Frame sweep_end_record(std::uint64_t sweep, const SweepEndStats& stats);

// What the analysis pass recovered about one sweep.
struct SweepState {
  std::uint64_t fingerprint = 0;   // grid_fingerprint of the sweep
  std::uint64_t total_cells = 0;
  std::string options;             // human-readable digest (error messages)
  bool ended = false;              // a kRecordSweepEnd was recovered
  SweepEndStats end_stats;
  // Committed (cell index, result) pairs in commit order; duplicates from
  // crash/resume overlap keep the first occurrence (per-cell seeds make
  // them bitwise identical anyway).
  std::vector<std::pair<std::size_t, ResultSet>> committed;
  // seen[i] != 0 <=> cell i is in `committed` (the O(1) duplicate check).
  std::vector<std::uint8_t> seen;

  bool has_cell(std::size_t index) const {
    return index < seen.size() && seen[index] != 0;
  }
};

// The analysis pass over a whole journal.
struct JournalAnalysis {
  // Sweeps in bench order: sweeps[s] is the bench's s-th SweepRunner::run.
  std::vector<SweepState> sweeps;
  std::size_t valid_bytes = 0;    // longest valid record prefix
  std::size_t dropped_bytes = 0;  // torn/corrupt tail bytes ignored
  bool torn_tail = false;         // the scan stopped before end of input

  std::size_t committed_cells() const;
};

// Scans `size` bytes of journal and returns everything recoverable.
// Never throws for tail damage - a truncated, torn or CRC-corrupt record
// ends the scan at the last valid boundary.  Throws wire::Error only for
// *semantic* corruption inside a CRC-valid record (a record type no
// journal writer emits, a cell index beyond the sweep's total, a begin
// that contradicts an earlier begin of the same sweep) - that is not tail
// damage but evidence the file is not this sweep's journal.
JournalAnalysis analyze_journal_bytes(const std::byte* data,
                                      std::size_t size);

// The analysis pass's per-record step: folds one CRC-authentic record into
// `analysis`.  Throws wire::Error for semantic corruption, as above.
void analyze_record(JournalAnalysis& analysis, const wire::Frame& record);

// Reads and analyzes a journal file.  Throws wire::Error if the file
// cannot be read at all; tail damage is tolerated as above.
JournalAnalysis analyze_journal(const std::string& path);

// Append-only record writer for sweep journals and the result cache.  Not
// thread-safe: the dispatch loop commits cells from one thread, and the
// cache appends under its own lock.
class JournalWriter {
 public:
  struct Options {
    // A count cap: fsync once this many records are unsynced.  The
    // default leaves only the age bound (kMaxSyncAge) and the boundary
    // records.
    std::size_t sync_every = static_cast<std::size_t>(-1);
    bool truncate = false;  // start a fresh journal (--journal) instead of
                            // appending to a recovered one (--resume)
    // When resuming a journal whose analysis found a torn tail, the torn
    // bytes must be physically dropped before appending: O_APPEND writes
    // at the end of the file, and a record behind torn bytes would be
    // unreachable (the analysis scan stops at the tear).  Set this to the
    // analysis' valid_bytes to cut the file there; SIZE_MAX keeps it.
    std::size_t truncate_at = static_cast<std::size_t>(-1);
  };

  // Opens (creating if missing) for appending.  Throws wire::Error on
  // open failure.
  JournalWriter(std::string path, Options options);
  ~JournalWriter();  // flushes; best-effort sync

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  const std::string& path() const { return path_; }

  void sweep_begin(std::uint64_t sweep, std::uint64_t fingerprint,
                   std::uint64_t total_cells, const std::string& options);
  void cell_committed(std::uint64_t sweep, std::uint64_t cell,
                      const ResultSet& result);
  void sweep_end(std::uint64_t sweep, const SweepEndStats& stats);

  // The longest a written record waits for its fsync while appends go
  // on.  It caps the appending thread at 20 fsyncs a second whatever the
  // commit rate (a count of 32 made ~625 per 0.4 s pass of microsecond
  // cells), while an OS crash loses at most 50 ms of commits, which a
  // resume re-evaluates to the same bytes.
  static constexpr std::chrono::milliseconds kMaxSyncAge{50};

  // Seals and writes one record, then fsyncs when `force_sync` is set,
  // the oldest unsynced record is kMaxSyncAge old, or `sync_every`
  // records are unsynced.
  void append(const wire::Frame& record, bool force_sync);

  // fsync now (boundary records call this themselves).
  void sync();

  // Records written since the last fsync.
  std::size_t unsynced() const { return unsynced_; }

 private:
  std::string path_;
  Options options_;
  int fd_ = -1;
  std::size_t unsynced_ = 0;
  std::chrono::steady_clock::time_point oldest_unsynced_;
};

}  // namespace recov
}  // namespace rbx
