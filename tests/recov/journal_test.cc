// The journal's durability contract: a log cut at ANY byte boundary yields
// the longest valid record prefix - a torn final record is dropped, never
// mis-decoded and never an exception - while semantic corruption inside a
// CRC-valid record (a foreign record type, an impossible cell index, a
// begin that contradicts an earlier begin) throws instead of producing a
// plausible-but-wrong recovery.
#include "recov/journal.h"

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/result.h"
#include "recov/resume.h"
#include "support/wire.h"

namespace rbx {
namespace recov {
namespace {

ResultSet make_result(std::size_t cell) {
  ResultSet r("test", "cell-" + std::to_string(cell));
  r.set("mean_interval_x", 1.0 + static_cast<double>(cell), 0.01, 1000);
  r.set("index", static_cast<double>(cell));
  return r;
}

std::vector<std::byte> begin_payload(std::uint64_t sweep,
                                     std::uint64_t fingerprint,
                                     std::uint64_t total,
                                     const std::string& options) {
  wire::Writer w;
  w.u64(sweep);
  w.u64(fingerprint);
  w.u64(total);
  w.str(options);
  return w.data();
}

std::vector<std::byte> cell_payload(std::uint64_t sweep, std::uint64_t cell,
                                    const ResultSet& result) {
  wire::Writer w;
  w.u64(sweep);
  w.u64(cell);
  result.encode(w);
  return w.data();
}

// A well-formed two-sweep journal built record by record in memory.
std::vector<std::byte> sample_journal() {
  std::vector<std::byte> bytes;
  const auto append = [&bytes](std::uint16_t type,
                               const std::vector<std::byte>& payload) {
    const auto rec = seal_record(type, payload);
    bytes.insert(bytes.end(), rec.begin(), rec.end());
  };
  append(kRecordSweepBegin, begin_payload(0, 0xfeedu, 3, "samples=100"));
  for (std::uint64_t c = 0; c < 3; ++c) {
    append(kRecordCellCommitted, cell_payload(0, c, make_result(c)));
  }
  {
    wire::Writer w;
    w.u64(0);   // sweep
    w.u64(3);   // committed
    w.u64(3);   // evaluated
    w.u64(250); // wall_ms
    w.f64(12.0);
    append(kRecordSweepEnd, w.data());
  }
  append(kRecordSweepBegin, begin_payload(1, 0xbeefu, 2, "samples=100"));
  append(kRecordCellCommitted, cell_payload(1, 1, make_result(7)));
  return bytes;
}

TEST(JournalScanTest, FullJournalRecoversEverySweep) {
  const auto bytes = sample_journal();
  const JournalAnalysis a = analyze_journal_bytes(bytes.data(), bytes.size());
  EXPECT_FALSE(a.torn_tail);
  EXPECT_EQ(a.valid_bytes, bytes.size());
  EXPECT_EQ(a.dropped_bytes, 0u);
  ASSERT_EQ(a.sweeps.size(), 2u);

  const SweepState& s0 = a.sweeps[0];
  EXPECT_EQ(s0.fingerprint, 0xfeedu);
  EXPECT_EQ(s0.total_cells, 3u);
  EXPECT_EQ(s0.options, "samples=100");
  EXPECT_TRUE(s0.ended);
  EXPECT_EQ(s0.end_stats.committed_cells, 3u);
  EXPECT_EQ(s0.end_stats.evaluated_cells, 3u);
  EXPECT_EQ(s0.end_stats.wall_ms, 250u);
  EXPECT_DOUBLE_EQ(s0.end_stats.cells_per_sec, 12.0);
  ASSERT_EQ(s0.committed.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(s0.has_cell(c));
    EXPECT_EQ(s0.committed[c].second, make_result(c));
  }

  const SweepState& s1 = a.sweeps[1];
  EXPECT_EQ(s1.fingerprint, 0xbeefu);
  EXPECT_FALSE(s1.ended);
  ASSERT_EQ(s1.committed.size(), 1u);
  EXPECT_TRUE(s1.has_cell(1));
  EXPECT_FALSE(s1.has_cell(0));
  EXPECT_EQ(a.committed_cells(), 4u);
}

TEST(JournalScanTest, TruncationAtEveryByteYieldsLongestValidPrefix) {
  // The central robustness claim: cut the journal at EVERY byte boundary.
  // The analysis must (a) never throw, (b) never invent a record - the
  // recovered commit count only steps up when a cut reveals one more
  // complete record - and (c) flag a torn tail whenever bytes remain.
  const auto bytes = sample_journal();
  const JournalAnalysis whole =
      analyze_journal_bytes(bytes.data(), bytes.size());
  const std::size_t total_committed = whole.committed_cells();

  std::size_t prev_committed = 0;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    JournalAnalysis a;
    ASSERT_NO_THROW(a = analyze_journal_bytes(bytes.data(), cut))
        << "cut at byte " << cut;
    EXPECT_LE(a.valid_bytes, cut);
    EXPECT_EQ(a.dropped_bytes, cut - a.valid_bytes);
    EXPECT_EQ(a.torn_tail, a.valid_bytes != cut) << "cut at byte " << cut;
    const std::size_t committed = a.committed_cells();
    // Monotone: losing tail bytes can only lose records.
    EXPECT_GE(committed, prev_committed) << "cut at byte " << cut;
    EXPECT_LE(committed, total_committed);
    // Every record the cut DID recover must decode to the exact results
    // the full journal holds - a torn record is dropped, never garbled.
    for (const SweepState& s : a.sweeps) {
      for (const auto& [cell, result] : s.committed) {
        EXPECT_EQ(result, make_result(s.fingerprint == 0xbeefu ? 7 : cell))
            << "cut at byte " << cut << " cell " << cell;
      }
    }
    prev_committed = committed;
  }
  EXPECT_EQ(prev_committed, total_committed - 1)
      << "the last cut (one byte short) must drop exactly the final record";
}

TEST(JournalScanTest, BitFlipStopsTheScanAtTheDamagedRecord) {
  // Corrupt one payload byte of the second cell record: its CRC no longer
  // matches, so the scan keeps the records before it and drops everything
  // from the damaged record on (a conservative prefix, not a skip).
  auto bytes = sample_journal();
  const auto clean = analyze_journal_bytes(bytes.data(), bytes.size());
  const auto first_cell = seal_record(
      kRecordCellCommitted, cell_payload(0, 0, make_result(0)));
  const auto begin = seal_record(
      kRecordSweepBegin, begin_payload(0, 0xfeedu, 3, "samples=100"));
  const std::size_t victim =
      begin.size() + first_cell.size() + wire::kFrameHeaderSize + 4;
  bytes[victim] ^= std::byte{0x20};

  const JournalAnalysis a = analyze_journal_bytes(bytes.data(), bytes.size());
  EXPECT_TRUE(a.torn_tail);
  EXPECT_EQ(a.valid_bytes, begin.size() + first_cell.size());
  ASSERT_EQ(a.sweeps.size(), 1u);
  EXPECT_EQ(a.committed_cells(), 1u);
  EXPECT_LT(a.committed_cells(), clean.committed_cells());
  EXPECT_EQ(a.sweeps[0].committed[0].second, make_result(0));
}

TEST(JournalScanTest, ForeignRecordTypeIsSemanticCorruption) {
  // A CRC-valid record of a type no journal writer emits (e.g. an executor
  // data frame, type 1) is not tail damage - the file is not a journal.
  wire::Writer w;
  w.u64(0);
  const auto rec = seal_record(/*type=*/1, w.data());
  EXPECT_THROW(analyze_journal_bytes(rec.data(), rec.size()), wire::Error);
}

TEST(JournalScanTest, CellBeyondSweepTotalIsSemanticCorruption) {
  std::vector<std::byte> bytes;
  const auto b = seal_record(kRecordSweepBegin,
                             begin_payload(0, 0xfeedu, 3, "x"));
  const auto c = seal_record(kRecordCellCommitted,
                             cell_payload(0, 9, make_result(9)));
  bytes.insert(bytes.end(), b.begin(), b.end());
  bytes.insert(bytes.end(), c.begin(), c.end());
  EXPECT_THROW(analyze_journal_bytes(bytes.data(), bytes.size()),
               wire::Error);
}

TEST(JournalScanTest, InflatedSweepTotalSizesNothing) {
  // A CRC-valid begin whose cell total is corrupt must not size anything
  // by it (a --merge source is outside input): the analysis keeps the
  // declared total, which the merge or resume then refuses as another
  // grid, and its duplicate mask grows only with the cells that arrive.
  std::vector<std::byte> bytes;
  const auto b = seal_record(kRecordSweepBegin,
                             begin_payload(0, 0xfeedu, 1ull << 60, "x"));
  const auto c = seal_record(kRecordCellCommitted,
                             cell_payload(0, 2, make_result(2)));
  bytes.insert(bytes.end(), b.begin(), b.end());
  bytes.insert(bytes.end(), c.begin(), c.end());
  const JournalAnalysis a = analyze_journal_bytes(bytes.data(), bytes.size());
  ASSERT_EQ(a.sweeps.size(), 1u);
  EXPECT_EQ(a.sweeps[0].total_cells, 1ull << 60);
  EXPECT_TRUE(a.sweeps[0].has_cell(2));
  EXPECT_FALSE(a.sweeps[0].has_cell(1));
  EXPECT_FALSE(a.sweeps[0].has_cell(3));
  EXPECT_THROW(check_grid(a.sweeps[0], 3, 0xfeedu), wire::Error);
}

TEST(JournalScanTest, ContradictoryReBeginIsSemanticCorruption) {
  // A resumed run re-appends its sweep-begin; the analysis accepts it only
  // when it agrees with the first one.  A different fingerprint for the
  // same sweep index means two different experiments wrote one file.
  std::vector<std::byte> bytes;
  const auto b1 = seal_record(kRecordSweepBegin,
                              begin_payload(0, 0xfeedu, 3, "x"));
  const auto b2 = seal_record(kRecordSweepBegin,
                              begin_payload(0, 0xdeadu, 3, "x"));
  bytes.insert(bytes.end(), b1.begin(), b1.end());
  bytes.insert(bytes.end(), b2.begin(), b2.end());
  EXPECT_THROW(analyze_journal_bytes(bytes.data(), bytes.size()),
               wire::Error);

  // The idempotent re-begin (same fingerprint, same total) is fine.
  std::vector<std::byte> ok;
  ok.insert(ok.end(), b1.begin(), b1.end());
  ok.insert(ok.end(), b1.begin(), b1.end());
  const JournalAnalysis a = analyze_journal_bytes(ok.data(), ok.size());
  ASSERT_EQ(a.sweeps.size(), 1u);
  EXPECT_EQ(a.sweeps[0].fingerprint, 0xfeedu);
}

TEST(JournalScanTest, DuplicateCommitKeepsTheFirstOccurrence) {
  // Crash/resume overlap can journal one cell twice (the fsync batch that
  // was lost gets re-evaluated).  The analysis keeps the first copy.
  std::vector<std::byte> bytes;
  const auto append = [&bytes](const std::vector<std::byte>& rec) {
    bytes.insert(bytes.end(), rec.begin(), rec.end());
  };
  append(seal_record(kRecordSweepBegin, begin_payload(0, 0xfeedu, 2, "x")));
  append(seal_record(kRecordCellCommitted,
                     cell_payload(0, 1, make_result(1))));
  append(seal_record(kRecordCellCommitted,
                     cell_payload(0, 1, make_result(1))));
  const JournalAnalysis a = analyze_journal_bytes(bytes.data(), bytes.size());
  ASSERT_EQ(a.sweeps.size(), 1u);
  EXPECT_EQ(a.sweeps[0].committed.size(), 1u);
  EXPECT_EQ(a.committed_cells(), 1u);
}

TEST(JournalWriterTest, FileRoundTripThroughWriterAndAnalysis) {
  const std::string path =
      testing::TempDir() + "journal_writer_roundtrip.rbxj";
  std::remove(path.c_str());
  {
    JournalWriter::Options opts;
    opts.sync_every = 2;
    JournalWriter w(path, opts);
    w.sweep_begin(0, 0xabcu, 4, "samples=100 nmax=4 seed=1");
    for (std::uint64_t c = 0; c < 4; ++c) {
      w.cell_committed(0, c, make_result(c));
    }
    SweepEndStats stats;
    stats.committed_cells = 4;
    stats.evaluated_cells = 4;
    stats.wall_ms = 12;
    stats.cells_per_sec = 333.25;
    w.sweep_end(0, stats);
  }
  const JournalAnalysis a = analyze_journal(path);
  EXPECT_FALSE(a.torn_tail);
  ASSERT_EQ(a.sweeps.size(), 1u);
  const SweepState& s = a.sweeps[0];
  EXPECT_EQ(s.fingerprint, 0xabcu);
  EXPECT_EQ(s.options, "samples=100 nmax=4 seed=1");
  EXPECT_TRUE(s.ended);
  EXPECT_DOUBLE_EQ(s.end_stats.cells_per_sec, 333.25);
  ASSERT_EQ(s.committed.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(s.committed[c].second, make_result(c));
  }

  // Reopening without truncate appends (the --resume path): the second
  // run's re-begin and its re-evaluated cells extend the same file.
  {
    JournalWriter w(path, JournalWriter::Options());
    w.sweep_begin(0, 0xabcu, 4, "samples=100 nmax=4 seed=1");
    w.cell_committed(0, 2, make_result(2));
  }
  const JournalAnalysis b = analyze_journal(path);
  ASSERT_EQ(b.sweeps.size(), 1u);
  EXPECT_EQ(b.sweeps[0].committed.size(), 4u);  // duplicate kept first

  // Truncate mode starts over (the --journal path).
  {
    JournalWriter::Options opts;
    opts.truncate = true;
    JournalWriter w(path, opts);
    w.sweep_begin(0, 0x123u, 1, "fresh");
  }
  const JournalAnalysis c = analyze_journal(path);
  ASSERT_EQ(c.sweeps.size(), 1u);
  EXPECT_EQ(c.sweeps[0].fingerprint, 0x123u);
  EXPECT_TRUE(c.sweeps[0].committed.empty());
  std::remove(path.c_str());
}

TEST(JournalWriterTest, TruncatedWriterFileRecoversThePrefix)
{
  // Write a journal, chop the file mid-record with truncate(2), re-analyze:
  // exactly the surviving whole records come back.
  const std::string path = testing::TempDir() + "journal_chopped.rbxj";
  std::remove(path.c_str());
  {
    JournalWriter w(path, JournalWriter::Options());
    w.sweep_begin(0, 0x77u, 2, "x");
    w.cell_committed(0, 0, make_result(0));
    w.cell_committed(0, 1, make_result(1));
  }
  const auto bytes = read_file_bytes(path, "journal");
  const auto last =
      seal_record(kRecordCellCommitted, cell_payload(0, 1, make_result(1)));
  ASSERT_EQ(truncate(path.c_str(),
                     static_cast<off_t>(bytes.size() - last.size() + 5)),
            0);
  const JournalAnalysis a = analyze_journal(path);
  EXPECT_TRUE(a.torn_tail);
  ASSERT_EQ(a.sweeps.size(), 1u);
  ASSERT_EQ(a.sweeps[0].committed.size(), 1u);
  EXPECT_EQ(a.sweeps[0].committed[0].second, make_result(0));

  // The resume path: reopen with truncate_at = the analysis' valid prefix
  // so the torn bytes are dropped and the re-evaluated cell's record is
  // reachable by the next scan (O_APPEND behind torn bytes would hide it).
  {
    JournalWriter::Options opts;
    opts.truncate_at = a.valid_bytes;
    JournalWriter w(path, opts);
    w.sweep_begin(0, 0x77u, 2, "x");
    w.cell_committed(0, 1, make_result(1));
  }
  const JournalAnalysis b = analyze_journal(path);
  EXPECT_FALSE(b.torn_tail);
  ASSERT_EQ(b.sweeps.size(), 1u);
  ASSERT_EQ(b.sweeps[0].committed.size(), 2u);
  EXPECT_EQ(b.sweeps[0].committed[1].second, make_result(1));
  std::remove(path.c_str());
}

TEST(JournalScanTest, MissingFileThrows) {
  EXPECT_THROW(analyze_journal(testing::TempDir() + "no_such_journal.rbxj"),
               wire::Error);
}

}  // namespace
}  // namespace recov
}  // namespace rbx
