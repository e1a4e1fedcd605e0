#include "recov/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "support/io.h"

namespace rbx {
namespace recov {

namespace {

// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
// kCrcTables[0] is the classic byte table, and kCrcTables[s][b] carries
// kCrcTables[0][b] through s more zero bytes, so eight lookups fold eight
// input bytes at once.  Built at compile time: a function-local static's
// init guard could be inherited held by a forked child.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const CrcTables& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::byte> seal_record(std::uint16_t type,
                                   const std::vector<std::byte>& payload) {
  std::vector<std::byte> record = wire::seal_frame(type, payload);
  const std::uint32_t crc = crc32(record.data(), record.size());
  record.push_back(static_cast<std::byte>(crc & 0xFFu));
  record.push_back(static_cast<std::byte>((crc >> 8) & 0xFFu));
  record.push_back(static_cast<std::byte>((crc >> 16) & 0xFFu));
  record.push_back(static_cast<std::byte>((crc >> 24) & 0xFFu));
  return record;
}

wire::Frame sweep_begin_record(std::uint64_t sweep, std::uint64_t fingerprint,
                               std::uint64_t total_cells,
                               const std::string& options) {
  wire::Writer w;
  w.u64(sweep);
  w.u64(fingerprint);
  w.u64(total_cells);
  w.str(options);
  return {kRecordSweepBegin, w.take()};
}

wire::Frame cell_committed_record(std::uint64_t sweep, std::uint64_t cell,
                                  const ResultSet& result) {
  wire::Writer w;
  w.u64(sweep);
  w.u64(cell);
  result.encode(w);
  return {kRecordCellCommitted, w.take()};
}

wire::Frame sweep_end_record(std::uint64_t sweep,
                             const SweepEndStats& stats) {
  wire::Writer w;
  w.u64(sweep);
  w.u64(stats.committed_cells);
  w.u64(stats.evaluated_cells);
  w.u64(stats.wall_ms);
  w.f64(stats.cells_per_sec);
  return {kRecordSweepEnd, w.take()};
}

std::size_t JournalAnalysis::committed_cells() const {
  std::size_t total = 0;
  for (const SweepState& sweep : sweeps) {
    total += sweep.committed.size();
  }
  return total;
}

RecordScan scan_records(const std::byte* data, std::size_t size) {
  RecordScan scan;
  std::size_t pos = 0;
  while (pos < size) {
    wire::Frame frame;
    std::size_t consumed = 0;
    bool parsed = false;
    try {
      parsed = wire::parse_frame(data + pos, size - pos, &frame, &consumed);
    } catch (const wire::Error&) {
      break;  // bad magic/version/length: a torn or foreign tail
    }
    if (!parsed || size - pos - consumed < 4) {
      break;  // truncated mid-record
    }
    const std::uint32_t want = load_le32(
        reinterpret_cast<const unsigned char*>(data + pos + consumed));
    if (crc32(data + pos, consumed) != want) {
      break;  // torn write or bit rot inside the record
    }
    scan.records.push_back(std::move(frame));
    pos += consumed + 4;
    scan.valid_bytes = pos;
  }
  scan.torn_tail = scan.valid_bytes < size;
  return scan;
}

std::vector<std::byte> read_file_bytes(const std::string& path,
                                       const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw wire::Error(std::string(what) + ": cannot open '" + path +
                      "' for reading");
  }
  std::vector<std::byte> data;
  std::byte chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.insert(data.end(), chunk, chunk + got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw wire::Error(std::string(what) + ": read error on '" + path + "'");
  }
  return data;
}

JournalAnalysis analyze_journal_bytes(const std::byte* data,
                                      std::size_t size) {
  JournalAnalysis analysis;
  const RecordScan scan = scan_records(data, size);
  analysis.valid_bytes = scan.valid_bytes;
  analysis.dropped_bytes = size - scan.valid_bytes;
  analysis.torn_tail = scan.torn_tail;
  for (const wire::Frame& frame : scan.records) {
    analyze_record(analysis, frame);
  }
  return analysis;
}

void analyze_record(JournalAnalysis& analysis, const wire::Frame& frame) {
  // Each record is authentic (CRC-checked, or delivered intact by TCP);
  // semantic violations from here on are real corruption (or a foreign
  // file), not tail damage - throw.
  wire::Reader r(frame.payload);
  if (frame.type == kRecordSweepBegin) {
    const std::uint64_t sweep = r.u64();
    const std::uint64_t fingerprint = r.u64();
    const std::uint64_t total_cells = r.u64();
    const std::string options = r.str();
    r.expect_done();
    if (sweep > analysis.sweeps.size()) {
      throw wire::Error("journal: sweep " + std::to_string(sweep) +
                        " begins before sweep " +
                        std::to_string(analysis.sweeps.size()) +
                        " (records out of order)");
    }
    if (sweep == analysis.sweeps.size()) {
      SweepState state;
      state.fingerprint = fingerprint;
      state.total_cells = total_cells;
      state.options = options;
      analysis.sweeps.push_back(std::move(state));
    } else {
      // A resumed run re-begins the sweep; the repeat must describe the
      // same grid or the journal mixes two different runs.
      const SweepState& state = analysis.sweeps[sweep];
      if (state.fingerprint != fingerprint ||
          state.total_cells != total_cells) {
        throw wire::Error(
            "journal: sweep " + std::to_string(sweep) +
            " re-begins with a different grid (fingerprint/total "
            "mismatch - two different runs wrote this journal?)");
      }
    }
  } else if (frame.type == kRecordCellCommitted) {
    const std::uint64_t sweep = r.u64();
    const std::uint64_t cell = r.u64();
    ResultSet result = ResultSet::decode(r);
    r.expect_done();
    if (sweep >= analysis.sweeps.size()) {
      throw wire::Error("journal: cell commit for sweep " +
                        std::to_string(sweep) + " before its begin");
    }
    SweepState& state = analysis.sweeps[sweep];
    if (cell >= state.total_cells) {
      throw wire::Error("journal: sweep " + std::to_string(sweep) +
                        " commits cell " + std::to_string(cell) +
                        " beyond its " + std::to_string(state.total_cells) +
                        " cells");
    }
    // A resumed run that crashed may re-commit cells an earlier run
    // logged; the first copy wins.  The mask grows with the cells that
    // arrive, not with the declared total a corrupt record could inflate.
    if (cell >= state.seen.size()) {
      state.seen.resize(static_cast<std::size_t>(cell) + 1, 0);
    }
    if (state.seen[cell] == 0) {
      state.seen[cell] = 1;
      state.committed.emplace_back(static_cast<std::size_t>(cell),
                                   std::move(result));
    }
  } else if (frame.type == kRecordSweepEnd) {
    const std::uint64_t sweep = r.u64();
    SweepEndStats stats;
    stats.committed_cells = r.u64();
    stats.evaluated_cells = r.u64();
    stats.wall_ms = r.u64();
    stats.cells_per_sec = r.f64();
    r.expect_done();
    if (sweep >= analysis.sweeps.size()) {
      throw wire::Error("journal: sweep end for sweep " +
                        std::to_string(sweep) + " before its begin");
    }
    analysis.sweeps[sweep].ended = true;
    analysis.sweeps[sweep].end_stats = stats;
  } else {
    throw wire::Error("journal: unexpected record type " +
                      std::to_string(frame.type) +
                      " (not a sweep journal?)");
  }
}

JournalAnalysis analyze_journal(const std::string& path) {
  const std::vector<std::byte> data = read_file_bytes(path, "journal");
  return analyze_journal_bytes(data.data(), data.size());
}

JournalWriter::JournalWriter(std::string path, Options options)
    : path_(std::move(path)), options_(options) {
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (options_.truncate) {
    flags |= O_TRUNC;
  }
  do {
    fd_ = ::open(path_.c_str(), flags, 0644);
  } while (fd_ < 0 && errno == EINTR);
  if (fd_ < 0) {
    throw wire::Error("cannot open '" + path_ + "' for appending: " +
                      std::strerror(errno));
  }
  if (!options_.truncate &&
      options_.truncate_at != static_cast<std::size_t>(-1)) {
    // Drop a torn tail the analysis pass found: O_APPEND writes at the
    // end of the file, so appending behind torn bytes would hide the new
    // records from every later scan.
    if (::ftruncate(fd_, static_cast<off_t>(options_.truncate_at)) != 0) {
      throw wire::Error("cannot drop the torn tail of '" + path_ +
                        "': " + std::strerror(errno));
    }
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) {
    if (unsynced_ > 0) {
      ::fsync(fd_);
    }
    ::close(fd_);
  }
}

void JournalWriter::sync() {
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    throw wire::Error("fsync of '" + path_ + "' failed: " +
                      std::strerror(errno));
  }
  unsynced_ = 0;
}

void JournalWriter::append(const wire::Frame& record, bool force_sync) {
  const std::vector<std::byte> sealed =
      seal_record(record.type, record.payload);
  // O_APPEND makes each write land at the current end even if another
  // process appends too; write_all retries EINTR and short writes.
  if (!io::write_all(fd_, sealed)) {
    throw wire::Error("append to '" + path_ + "' failed");
  }
  const auto now = std::chrono::steady_clock::now();
  if (unsynced_++ == 0) {
    oldest_unsynced_ = now;
  }
  if (force_sync || unsynced_ >= options_.sync_every ||
      now - oldest_unsynced_ >= kMaxSyncAge) {
    sync();
  }
}

void JournalWriter::sweep_begin(std::uint64_t sweep,
                                std::uint64_t fingerprint,
                                std::uint64_t total_cells,
                                const std::string& options) {
  append(sweep_begin_record(sweep, fingerprint, total_cells, options),
         /*force_sync=*/true);
}

void JournalWriter::cell_committed(std::uint64_t sweep, std::uint64_t cell,
                                   const ResultSet& result) {
  append(cell_committed_record(sweep, cell, result), /*force_sync=*/false);
}

void JournalWriter::sweep_end(std::uint64_t sweep,
                              const SweepEndStats& stats) {
  append(sweep_end_record(sweep, stats), /*force_sync=*/true);
}

}  // namespace recov
}  // namespace rbx
