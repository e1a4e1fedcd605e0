// In-memory span recorder for the benchmark's traced run.
//
// Spans wrap the benchmark's own calls into each layer (a sweep, a cell
// evaluation, a journal append, a wire seal/parse); nothing inside the
// library is instrumented.  Spans stay in memory and are written as Chrome
// trace-event JSON when the run ends, so recording costs a clock read and a
// vector push.  A disabled tracer records nothing.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

// steady_clock in nanoseconds.  On Linux this is CLOCK_MONOTONIC, which is
// system-wide, so stamps taken in forked workers line up with the parent's.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // "<layer>.<what>", e.g. "wire.cellbatch.seal"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      // 1-based; 0 is "no span"
  std::uint64_t parent = 0;  // 0 = a root span
  std::uint32_t pass = 0;    // the pass the span belongs to
  std::int64_t tid = 0;      // thread (or forked worker) that ran it
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Span names must be string literals: spans keep the pointer.
  // Opens a span now; returns its id (0 when disabled).
  std::uint64_t open(const char* name, std::uint64_t parent,
                     std::uint32_t pass);
  void close(std::uint64_t id);
  // Records a span measured elsewhere (a cell timed inside a worker).
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t parent, std::uint32_t pass, std::int64_t tid);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time in seconds of every span name within one pass: each span's
  // duration minus the part of it its children cover (children may run
  // concurrently, so their union is subtracted).
  std::map<std::string, double> self_seconds(std::uint32_t pass) const;

  // Writes the spans of passes 0..max_pass as Chrome trace-event JSON
  // ("X" events, timestamps relative to the first span).  Throws
  // std::runtime_error on I/O failure.
  void write_chrome_json(const std::string& path,
                         std::uint32_t max_pass) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace e2e
