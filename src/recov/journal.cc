#include "recov/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "support/io.h"

// The carry-less multiply fold needs x86-64 and GCC's (or Clang's) target
// attribute; everywhere else every input takes slicing-by-8.
#if defined(__x86_64__) && defined(__GNUC__)
#define RBX_CRC_FOLD 1
#include <immintrin.h>
#else
#define RBX_CRC_FOLD 0
#endif

namespace rbx {
namespace recov {

namespace {

// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
// kCrcTables[0] is the classic byte table, and kCrcTables[s][b] carries
// kCrcTables[0][b] through s more zero bytes, so eight lookups fold eight
// input bytes at once.  Built at compile time: a function-local static's
// init guard could be inherited held by a forked child.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? kCrcPoly ^ (c >> 1) : c >> 1;
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

// Advances the CRC state `c` (pre-inversion) over `size` bytes, eight at
// a time and then byte by byte: every input the fold below does not take.
std::uint32_t crc32_slice8(std::uint32_t c, const unsigned char* p,
                           std::size_t size) {
  const CrcTables& t = kCrcTables;
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
  return c;
}

#if RBX_CRC_FOLD
// --- the carry-less multiply fold ------------------------------------------
//
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009), in the bit-reflected form zlib
// and the Linux kernel use for this polynomial.  A 128-bit accumulator
// holding 16 message bytes is carried D bits further along the message
// by multiplying its two 64-bit halves by x^(D+32) and x^(D-32) mod P
// and xoring the products onto the 16 bytes found D bits on; four
// accumulators fold 64 bytes a step.  At the end one 128-bit value is
// folded to 64 bits and Barrett-reduced to the 32-bit CRC.
//
// Every constant is derived here from the polynomial.  Reflected, a
// polynomial of degree < 32 keeps the coefficient of x^i in bit 31 - i,
// so multiplying by x is a right shift, and the x^32 that falls out of
// bit 0 reduces to kCrcPoly.

// x^e mod P, reflected.
constexpr std::uint32_t xpow_mod(unsigned e) {
  std::uint32_t r = 0x80000000u;  // x^0
  for (unsigned k = 0; k < e; ++k) {
    r = (r & 1u) != 0 ? (r >> 1) ^ kCrcPoly : r >> 1;
  }
  return r;
}

// The fold multiplier for x^e: (x^e mod P) reflected into the low 33 bits
// of a 64-bit lane.  The extra shift accounts for a reflected 64x64-bit
// carry-less product landing one bit low.
constexpr std::uint64_t fold_constant(unsigned e) {
  return std::uint64_t{xpow_mod(e)} << 1;
}

// Reverses the low `bits` bits of v.
constexpr std::uint64_t reflect(std::uint64_t v, int bits) {
  std::uint64_t r = 0;
  for (int i = 0; i < bits; ++i) {
    r |= ((v >> i) & 1u) << (bits - 1 - i);
  }
  return r;
}

// P with its x^32 term, reflected over 33 bits.
constexpr std::uint64_t kPolyFull = (std::uint64_t{kCrcPoly} << 1) | 1u;

// Barrett's mu: floor(x^64 / P) by long division in the normal bit order,
// then reflected over its 33 bits.
constexpr std::uint64_t barrett_mu() {
  const std::uint64_t p = reflect(kPolyFull, 33);  // 0x104C11DB7
  std::uint64_t rem = 0;
  std::uint64_t quotient = 0;
  for (int i = 64; i >= 0; --i) {  // the dividend's bits, x^64 first
    rem = (rem << 1) | (i == 64 ? 1u : 0u);
    quotient <<= 1;
    if (((rem >> 32) & 1u) != 0) {
      rem ^= p;
      quotient |= 1u;
    }
  }
  return reflect(quotient, 33);
}

constexpr std::uint64_t kFold512Lo = fold_constant(4 * 128 + 32);
constexpr std::uint64_t kFold512Hi = fold_constant(4 * 128 - 32);
constexpr std::uint64_t kFold128Lo = fold_constant(128 + 32);
constexpr std::uint64_t kFold128Hi = fold_constant(128 - 32);
constexpr std::uint64_t kFold64 = fold_constant(64);
constexpr std::uint64_t kBarrettMu = barrett_mu();

// The published constants (the paper's k1..k5 and mu, as zlib and Linux
// carry them): a check on the derivation above.
static_assert(kFold512Lo == 0x154442bd4 && kFold512Hi == 0x1c6e41596);
static_assert(kFold128Lo == 0x1751997d0 && kFold128Hi == 0x0ccaa009e);
static_assert(kFold64 == 0x163cd6124);
static_assert(kPolyFull == 0x1db710641 && kBarrettMu == 0x1f7011641);

// Carries `acc` 128 or 512 bits on (by `k`) and adds `next` in.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold16(
    __m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

// Advances the CRC state `c` over `size` bytes; size >= 64 and a multiple
// of 16.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(
    std::uint32_t c, const unsigned char* p, std::size_t size) {
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  const __m128i by512 = _mm_set_epi64x(static_cast<long long>(kFold512Hi),
                                       static_cast<long long>(kFold512Lo));
  const __m128i by128 = _mm_set_epi64x(static_cast<long long>(kFold128Hi),
                                       static_cast<long long>(kFold128Lo));
  __m128i a = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i b = load(p + 16);
  __m128i d = load(p + 32);
  __m128i e = load(p + 48);
  for (p += 64, size -= 64; size >= 64; p += 64, size -= 64) {
    a = fold16(a, by512, load(p));
    b = fold16(b, by512, load(p + 16));
    d = fold16(d, by512, load(p + 32));
    e = fold16(e, by512, load(p + 48));
  }
  a = fold16(a, by128, b);
  a = fold16(a, by128, d);
  a = fold16(a, by128, e);
  for (; size >= 16; p += 16, size -= 16) {
    a = fold16(a, by128, load(p));
  }

  // 128 -> 64 bits: the low half times x^96 onto the high half, then
  // the low 32 bits of that times x^64 onto the rest.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  a = _mm_xor_si128(_mm_srli_si128(a, 8), _mm_clmulepi64_si128(a, by128, 0x10));
  a = _mm_xor_si128(
      _mm_srli_si128(a, 4),
      _mm_clmulepi64_si128(_mm_and_si128(a, low32),
                           _mm_cvtsi64_si128(static_cast<long long>(kFold64)),
                           0x00));

  // Barrett: q = floor(a / P) from mu, then a - q P; the CRC is the
  // second 32-bit word.
  const __m128i barrett = _mm_set_epi64x(static_cast<long long>(kBarrettMu),
                                         static_cast<long long>(kPolyFull));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(a, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(a, q), 1));
}
#endif  // RBX_CRC_FOLD

// Closes the frame `w` opened at `mark` (Writer::begin_frame) and appends
// the CRC-32 of the whole frame: a journal record, sealed in the buffer
// it was encoded into.  The one definition of the record layout.
void end_record(wire::Writer& w, std::size_t mark) {
  w.end_frame(mark);
  const std::size_t start = mark - wire::kFrameHeaderSize;
  w.u32(crc32(w.data().data() + start, w.size() - start));
}

// kRecordCellCommitted's payload: sweep, cell, the encoded ResultSet.
void encode_cell_committed(wire::Writer& w, std::uint64_t sweep,
                           std::uint64_t cell, const ResultSet& result) {
  w.u64(sweep);
  w.u64(cell);
  result.encode(w);
}

}  // namespace

bool crc32_folds() {
#if RBX_CRC_FOLD
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

std::uint32_t crc32(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
#if RBX_CRC_FOLD
  if (size >= 64 && crc32_folds()) {
    const std::size_t folded = size & ~std::size_t{15};
    c = crc32_fold(c, p, folded);
    p += folded;
    size -= folded;
  }
#endif
  return crc32_slice8(c, p, size) ^ 0xFFFFFFFFu;
}

std::vector<std::byte> seal_record(std::uint16_t type,
                                   const std::vector<std::byte>& payload) {
  wire::Writer w;
  w.reserve(wire::kFrameHeaderSize + payload.size() + 4);
  const std::size_t mark = w.begin_frame(type);
  w.bytes(payload.data(), payload.size());
  end_record(w, mark);
  return w.take();
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
  encode_cell_committed(w, sweep, cell, result);
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

std::size_t JournalWriter::begin_record(std::uint16_t type) {
  record_.clear();
  return record_.begin_frame(type);
}

void JournalWriter::write_record(std::size_t mark, bool force_sync) {
  end_record(record_, mark);
  // O_APPEND makes each write land at the current end even if another
  // process appends too; write_all retries EINTR and short writes.
  if (!io::write_all(fd_, record_.data())) {
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

void JournalWriter::append(const wire::Frame& record, bool force_sync) {
  const std::size_t mark = begin_record(record.type);
  record_.bytes(record.payload.data(), record.payload.size());
  write_record(mark, force_sync);
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
  // Encoded straight into the record buffer, so the result's bytes are
  // written once.
  const std::size_t mark = begin_record(kRecordCellCommitted);
  encode_cell_committed(record_, sweep, cell, result);
  write_record(mark, /*force_sync=*/false);
}

void JournalWriter::sweep_end(std::uint64_t sweep,
                              const SweepEndStats& stats) {
  append(sweep_end_record(sweep, stats), /*force_sync=*/true);
}

}  // namespace recov
}  // namespace rbx
