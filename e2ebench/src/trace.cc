#include "trace.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace e2e {

std::uint64_t Tracer::open(const char* name, std::uint64_t parent,
                           std::uint32_t pass) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.name = name;
  span.start_ns = now_ns();
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.pass = pass;
  span.tid = static_cast<std::int64_t>(::syscall(SYS_gettid));
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
  if (id != 0) {
    spans_[id - 1].end_ns = now_ns();
  }
}

void Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t parent, std::uint32_t pass, std::int64_t tid) {
  if (!enabled_) {
    return;
  }
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.pass = pass;
  span.tid = tid;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::self_seconds(std::uint32_t pass) const {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.pass == pass && s.parent != 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    if (s.pass != pass) {
      continue;
    }
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t run_start = 0;
      std::int64_t run_end = -1;
      bool open_run = false;
      for (const auto& [b0, e0] : iv) {
        const std::int64_t b = std::max(b0, s.start_ns);
        const std::int64_t e = std::min(e0, s.end_ns);
        if (e <= b) {
          continue;
        }
        if (open_run && b <= run_end) {
          run_end = std::max(run_end, e);
          continue;
        }
        if (open_run) {
          covered += run_end - run_start;
        }
        run_start = b;
        run_end = e;
        open_run = true;
      }
      if (open_run) {
        covered += run_end - run_start;
      }
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

void Tracer::write_chrome_json(const std::string& path,
                               std::uint32_t max_pass) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("trace: cannot write '" + path + "'");
  }
  std::int64_t origin = 0;
  if (!spans_.empty()) {
    origin = std::min_element(spans_.begin(), spans_.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  const char* sep = "";
  for (const Span& s : spans_) {
    if (s.pass > max_pass) {
      continue;
    }
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %lld, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"pass\": %u}}\n",
                 sep, s.name, static_cast<long long>(s.tid),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.pass);
    sep = ",";
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("trace: cannot write '" + path + "'");
  }
}

}  // namespace e2e
