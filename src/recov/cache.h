// ResultCache: a worker-side, disk-backed cache of evaluated cells.
//
// A sweep cell is a pure function of its wire form: the Scenario carries
// every knob including the per-cell seed, and the EvalPlan names the
// backends and merge prefixes - so (scenario bytes, plan bytes) uniquely
// determines the ResultSet, bit for bit.  The cache exploits that:
// sweep_workerd (--cache-dir=DIR) remembers every cell it evaluates, and
// a repeated or overlapping sweep - same grid re-run after a crash, the
// same cells inside a larger grid, another coordinator sweeping the same
// figure - is answered from the cache without re-evaluating anything.
// Because a hit returns the exact bytes an evaluation would produce, a
// cached sweep is bitwise identical to a fresh one; only the wall-clock
// changes.  Coordinators that want fresh evaluation anyway (--no-cache)
// set a Hello flag and the daemon bypasses lookups for that session.
//
// Keying: entries are keyed by the cell's full wire form, its scenario
// and plan encodings - finer than (grid fingerprint, cell index), so
// overlapping grids hit on their shared cells, and no two cells can ever
// share a key.
//
// Persistence reuses the journal record format (recov/journal.h): the
// cache file is a sequence of CRC'd kRecordCacheEntry records (cell_key,
// then the scenario and plan encodings as wire str() blobs, then the
// ResultSet), appended through the sweep journal's JournalWriter as cells
// are evaluated and replayed through the same torn-tail-tolerant scan on
// startup.  So the cache has the journal's durability: killing a daemon
// mid-append costs at most the torn record, a crash loses at most the
// writer's `sync_every` unsynced entries, and a failed append or fsync
// throws wire::Error naming the file.
//
// Thread-safe: sweep_workerd serves sessions concurrently, so lookup and
// insert take an internal mutex (the disk append happens under it too,
// keeping records whole).
//
// Compaction: the file is append-only while the daemon runs, so it only
// ever grows - including duplicate records from crash overlap and entries
// nobody will ask for again.  Options::max_bytes (sweep_workerd
// --cache-max-bytes=N) bounds it: at startup, when the surviving records
// exceed the cap, the *oldest* entries are dropped until the newest fit
// and the file is atomically rewritten with exactly the retained records
// (which also sheds duplicates and the torn tail).  Retained entries
// still hit afterwards - pinned by tests/recov/cache_compaction_test.cc.
// Runtime appends are not re-checked against the cap; the bound is
// enforced at every daemon start, which is when the file is reread
// anyway.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "core/backend.h"
#include "core/result.h"
#include "core/scenario.h"
#include "recov/journal.h"

namespace rbx {
namespace recov {

// FNV-1a over the cell's full wire form (scenario + plan).
std::uint64_t cell_key(const Scenario& scenario, const EvalPlan& plan);

class ResultCache {
 public:
  struct Options {
    // Startup size cap in bytes (0 = unlimited): when the cache file's
    // surviving records exceed this, oldest entries are dropped and the
    // file is compacted before appending resumes.
    std::size_t max_bytes = 0;
  };

  // Loads DIR/cache.rbxj (tolerating a torn tail) and opens it for
  // appending.  Throws wire::Error when the directory does not exist or
  // the file cannot be opened/scanned.
  explicit ResultCache(const std::string& dir) : ResultCache(dir, Options()) {}
  ResultCache(const std::string& dir, Options options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // True (and *out filled) when the exact cell is cached.
  bool lookup(const Scenario& scenario, const EvalPlan& plan,
              ResultSet* out);

  // Remembers an evaluation, appending it to the cache file.  A cell
  // already present is ignored (the evaluations are bitwise identical).
  void insert(const Scenario& scenario, const EvalPlan& plan,
              const ResultSet& result);

  std::size_t entries() const;
  std::size_t hits() const;
  std::size_t misses() const;

  const std::string& path() const { return writer_.path(); }

 private:
  // A cell's wire form: (scenario encoding, plan encoding).
  using CellBytes = std::pair<std::string, std::string>;

  // Replays `path` into map_, compacting it under `max_bytes`, and returns
  // the options that open the writer behind the last valid record.
  JournalWriter::Options load(const std::string& path, std::size_t max_bytes);

  mutable std::mutex mutex_;  // guards every member below
  std::map<CellBytes, ResultSet> map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  // Declared last: load() fills map_ and rewrites the file before the
  // writer opens it.
  JournalWriter writer_;
};

}  // namespace recov
}  // namespace rbx
