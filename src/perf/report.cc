#include "perf/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "perf/json.h"
#include "recov/journal.h"

namespace rbx {
namespace perf {

namespace {

constexpr const char* kSchema = "rbx-bench-v1";

Json kernel_to_json(const KernelStats& k) {
  Json j = Json::object();
  j.set("name", Json::string(k.name));
  j.set("layer", Json::string(k.layer));
  j.set("ns_median", Json::number(k.ns_median));
  j.set("ns_p10", Json::number(k.ns_p10));
  j.set("ns_p90", Json::number(k.ns_p90));
  j.set("reps", Json::number(static_cast<double>(k.reps)));
  j.set("intervals", Json::number(static_cast<double>(k.intervals)));
  j.set("threads", Json::number(static_cast<double>(k.threads)));
  return j;
}

// A timing the compare gate divides by: finite and > 0.  A zero, negative
// or NaN baseline median would let any slowdown pass.
double time_at(const Json& j, const std::string& key,
               const std::string& where) {
  const double v = j.number_at(key);
  if (!(std::isfinite(v) && v > 0.0)) {
    throw json::Error("bench report: " + where + ": '" + key +
                      "' is not a finite time > 0");
  }
  return v;
}

// A count: an integer in [0, 2^53], where doubles are still exact.
std::uint64_t count_at(const Json& j, const std::string& key,
                       const std::string& where) {
  const double v = j.number_at(key);
  if (!(v >= 0.0 && v <= 9007199254740992.0 && v == std::floor(v))) {
    throw json::Error("bench report: " + where + ": '" + key +
                      "' is not an integer count in [0, 2^53]");
  }
  return static_cast<std::uint64_t>(v);
}

KernelStats kernel_from_json(const Json& j) {
  KernelStats k;
  k.name = j.string_at("name");
  k.layer = j.string_at("layer");
  const std::string where = "kernel '" + k.name + "'";
  k.ns_median = time_at(j, "ns_median", where);
  k.ns_p10 = time_at(j, "ns_p10", where);
  k.ns_p90 = time_at(j, "ns_p90", where);
  k.reps = count_at(j, "reps", where);
  k.intervals = count_at(j, "intervals", where);
  k.threads = count_at(j, "threads", where);
  return k;
}

Json sweep_to_json(const SweepRecord& s) {
  Json j = Json::object();
  j.set("source", Json::string(s.source));
  j.set("sweep", Json::number(static_cast<double>(s.sweep)));
  j.set("committed_cells",
        Json::number(static_cast<double>(s.committed_cells)));
  j.set("evaluated_cells",
        Json::number(static_cast<double>(s.evaluated_cells)));
  j.set("wall_ms", Json::number(static_cast<double>(s.wall_ms)));
  j.set("cells_per_sec", Json::number(s.cells_per_sec));
  return j;
}

SweepRecord sweep_from_json(const Json& j) {
  SweepRecord s;
  s.source = j.string_at("source");
  const std::string where = "sweep record of '" + s.source + "'";
  s.sweep = count_at(j, "sweep", where);
  s.committed_cells = count_at(j, "committed_cells", where);
  s.evaluated_cells = count_at(j, "evaluated_cells", where);
  s.wall_ms = count_at(j, "wall_ms", where);
  s.cells_per_sec = j.number_at("cells_per_sec");
  return s;
}

}  // namespace

std::string build_flags_description() {
  std::string out;
#ifdef NDEBUG
  out += "Release";
#else
  out += "Debug";
#endif
#ifdef __OPTIMIZE__
  out += " -O";
#endif
#ifdef __VERSION__
  out += " | ";
  out += __VERSION__;
#endif
  return out;
}

std::string BenchReport::to_json() const {
  Json j = Json::object();
  j.set("schema", Json::string(kSchema));
  j.set("label", Json::string(label));
  j.set("timestamp", Json::string(timestamp));
  j.set("build_flags", Json::string(build_flags));
  j.set("threads", Json::number(static_cast<double>(threads)));
  Json ks = Json::array();
  for (const KernelStats& k : kernels) {
    ks.push_back(kernel_to_json(k));
  }
  j.set("kernels", std::move(ks));
  Json ss = Json::array();
  for (const SweepRecord& s : sweeps) {
    ss.push_back(sweep_to_json(s));
  }
  j.set("sweeps", std::move(ss));
  return j.dump();
}

BenchReport BenchReport::from_json(const std::string& text) {
  const Json j = Json::parse(text);
  if (j.string_at("schema") != kSchema) {
    throw json::Error("bench report: unknown schema '" +
                      j.string_at("schema") + "' (this build reads " +
                      kSchema + ")");
  }
  BenchReport r;
  r.label = j.string_at("label");
  r.timestamp = j.string_at("timestamp");
  r.build_flags = j.string_at("build_flags");
  r.threads = count_at(j, "threads", "report");
  const Json* ks = j.find("kernels");
  if (ks == nullptr || !ks->is_array()) {
    throw json::Error("bench report: missing 'kernels' array");
  }
  for (const Json& k : ks->items()) {
    r.kernels.push_back(kernel_from_json(k));
  }
  if (const Json* ss = j.find("sweeps"); ss != nullptr && ss->is_array()) {
    for (const Json& s : ss->items()) {
      r.sweeps.push_back(sweep_from_json(s));
    }
  }
  return r;
}

void BenchReport::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw json::Error("bench report: cannot open '" + path +
                      "' for writing");
  }
  out << to_json();
  out.flush();
  if (!out) {
    throw json::Error("bench report: short write to '" + path + "'");
  }
}

BenchReport BenchReport::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw json::Error("bench report: cannot open '" + path +
                      "' for reading");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(buf.str());
}

void import_journal(BenchReport* report, const std::string& journal_path,
                    const std::string& source) {
  std::string name = source;
  if (name.empty()) {
    const std::size_t slash = journal_path.find_last_of('/');
    name = slash == std::string::npos ? journal_path
                                      : journal_path.substr(slash + 1);
  }
  const recov::JournalAnalysis analysis =
      recov::analyze_journal(journal_path);
  for (std::size_t i = 0; i < analysis.sweeps.size(); ++i) {
    const recov::SweepState& sweep = analysis.sweeps[i];
    if (!sweep.ended) {
      continue;  // no end record, no perf counters to import
    }
    SweepRecord rec;
    rec.source = name;
    rec.sweep = i;
    rec.committed_cells = sweep.end_stats.committed_cells;
    rec.evaluated_cells = sweep.end_stats.evaluated_cells;
    rec.wall_ms = sweep.end_stats.wall_ms;
    rec.cells_per_sec = sweep.end_stats.cells_per_sec;
    report->sweeps.push_back(rec);

    if (rec.evaluated_cells > 0) {
      // Per-evaluated-cell wall time as a synthetic kernel, so
      // compare_reports() tracks sweep throughput like any other kernel.
      // A sweep under 1 ms counts as 1 ms, as in SweepRunner's cells/s:
      // a 0 median would not load back.
      KernelStats k;
      k.name = "journal:" + name + ":sweep" + std::to_string(i);
      k.layer = "sweep";
      k.ns_median =
          static_cast<double>(std::max<std::uint64_t>(rec.wall_ms, 1)) *
          1e6 / static_cast<double>(rec.evaluated_cells);
      k.ns_p10 = k.ns_median;
      k.ns_p90 = k.ns_median;
      k.reps = rec.evaluated_cells;
      k.intervals = 1;
      k.threads = 1;
      report->kernels.push_back(std::move(k));
    }
  }
}

std::string CompareOutcome::render() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-34s %12s %12s %8s\n", "kernel",
                "old ns/op", "new ns/op", "ratio");
  out += line;
  for (const CompareRow& row : rows) {
    std::snprintf(line, sizeof(line), "%-34s %12.1f %12.1f %7.3fx%s\n",
                  row.name.c_str(), row.old_ns, row.new_ns, row.ratio,
                  row.regression ? "  REGRESSION" : "");
    out += line;
  }
  for (const std::string& name : only_old) {
    out += "  (only in old report: " + name + ")\n";
  }
  for (const std::string& name : only_new) {
    out += "  (only in new report: " + name + ")\n";
  }
  return out;
}

CompareOutcome compare_reports(const BenchReport& old_report,
                               const BenchReport& new_report,
                               double threshold_pct) {
  CompareOutcome outcome;
  const double limit = 1.0 + threshold_pct / 100.0;
  for (const KernelStats& old_k : old_report.kernels) {
    const KernelStats* new_k = nullptr;
    for (const KernelStats& k : new_report.kernels) {
      if (k.name == old_k.name) {
        new_k = &k;
        break;
      }
    }
    if (new_k == nullptr) {
      outcome.only_old.push_back(old_k.name);
      continue;
    }
    CompareRow row;
    row.name = old_k.name;
    row.old_ns = old_k.ns_median;
    row.new_ns = new_k->ns_median;
    row.ratio = old_k.ns_median > 0.0 ? new_k->ns_median / old_k.ns_median
                                      : 0.0;
    row.regression = row.ratio > limit;
    outcome.regressed = outcome.regressed || row.regression;
    outcome.rows.push_back(std::move(row));
  }
  for (const KernelStats& new_k : new_report.kernels) {
    bool found = false;
    for (const KernelStats& k : old_report.kernels) {
      if (k.name == new_k.name) {
        found = true;
        break;
      }
    }
    if (!found) {
      outcome.only_new.push_back(new_k.name);
    }
  }
  std::sort(outcome.rows.begin(), outcome.rows.end(),
            [](const CompareRow& a, const CompareRow& b) {
              return a.ratio > b.ratio;
            });
  return outcome;
}

}  // namespace perf
}  // namespace rbx
