#include "recov/cache.h"

#include <utility>
#include <vector>

namespace rbx {
namespace recov {

namespace {

// A scenario's or plan's wire encoding, the bytes a cell is keyed by.
template <typename T>
std::string encoding(const T& value) {
  wire::Writer w;
  value.encode(w);
  const std::vector<std::byte>& data = w.data();
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

// FNV-1a over scenario bytes then plan bytes.
std::uint64_t fnv1a(const std::string& scenario, const std::string& plan) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string* data : {&scenario, &plan}) {
    for (char c : *data) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// On-disk size of one sealed record: frame header + payload + CRC trailer
// (seal_record's layout).
std::size_t record_size(const std::vector<std::byte>& payload) {
  return wire::kFrameHeaderSize + payload.size() + 4;
}

}  // namespace

std::uint64_t cell_key(const Scenario& scenario, const EvalPlan& plan) {
  return fnv1a(encoding(scenario), encoding(plan));
}

ResultCache::ResultCache(const std::string& dir, Options options)
    : writer_(dir + "/cache.rbxj",
              load(dir + "/cache.rbxj", options.max_bytes)) {}

JournalWriter::Options ResultCache::load(const std::string& path,
                                         std::size_t max_bytes) {
  // Replay whatever a previous daemon left behind; a missing file is a
  // fresh cache (an unusable directory fails when the writer opens it), a
  // torn tail is the record a kill interrupted.
  std::vector<std::byte> data;
  try {
    data = read_file_bytes(path, "cache");
  } catch (const wire::Error&) {
  }
  const RecordScan scan = scan_records(data.data(), data.size());
  // Each unique entry in append order (oldest first), with its record
  // payload: compaction drops from the front.
  std::vector<std::pair<decltype(map_)::iterator,
                        const std::vector<std::byte>*>>
      unique;
  for (const wire::Frame& frame : scan.records) {
    if (frame.type != kRecordCacheEntry) {
      throw wire::Error("cache: unexpected record type " +
                        std::to_string(frame.type) + " in '" + path +
                        "' (not a result cache?)");
    }
    wire::Reader r(frame.payload);
    r.u64();  // cell_key: the map keys by the encodings themselves
    CellBytes cell;
    cell.first = r.str();
    cell.second = r.str();
    ResultSet result = ResultSet::decode(r);
    r.expect_done();
    const auto [it, fresh] =
        map_.try_emplace(std::move(cell), std::move(result));
    if (fresh) {
      unique.emplace_back(it, &frame.payload);
    }
  }

  // Size cap: when the file outgrew max_bytes (duplicates, torn bytes, or
  // simply too many entries), drop the oldest unique entries until the
  // rest fit and rewrite the file with exactly the retained records.
  JournalWriter::Options writer_options;
  if (max_bytes > 0 && data.size() > max_bytes) {
    std::size_t retained_bytes = 0;
    for (const auto& entry : unique) {
      retained_bytes += record_size(*entry.second);
    }
    std::size_t first = 0;
    for (; retained_bytes > max_bytes && first < unique.size(); ++first) {
      retained_bytes -= record_size(*unique[first].second);
      map_.erase(unique[first].first);
    }
    std::vector<std::byte> compacted;
    compacted.reserve(retained_bytes);
    for (std::size_t i = first; i < unique.size(); ++i) {
      const std::vector<std::byte> record =
          seal_record(kRecordCacheEntry, *unique[i].second);
      compacted.insert(compacted.end(), record.begin(), record.end());
    }
    wire::write_file_atomic(path, compacted);
  } else if (scan.torn_tail) {
    // Cut the record the kill tore, so new appends stay reachable.
    writer_options.truncate_at = scan.valid_bytes;
  }
  return writer_options;
}

bool ResultCache::lookup(const Scenario& scenario, const EvalPlan& plan,
                         ResultSet* out) {
  const CellBytes cell(encoding(scenario), encoding(plan));
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(cell);
  if (it == map_.end()) {
    ++misses_;
    return false;
  }
  *out = it->second;
  ++hits_;
  return true;
}

void ResultCache::insert(const Scenario& scenario, const EvalPlan& plan,
                         const ResultSet& result) {
  CellBytes cell(encoding(scenario), encoding(plan));
  wire::Writer w;
  w.u64(fnv1a(cell.first, cell.second));
  w.str(cell.first);
  w.str(cell.second);
  result.encode(w);

  std::lock_guard<std::mutex> lock(mutex_);
  if (map_.contains(cell)) {
    return;  // already cached; the evaluations are bitwise identical
  }
  writer_.append({kRecordCacheEntry, w.take()}, /*force_sync=*/false);
  map_.emplace(std::move(cell), result);
}

std::size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

std::size_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace recov
}  // namespace rbx
