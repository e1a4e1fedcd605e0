// Table-driven command-line flags: the one strict parser behind the
// benches' ExperimentOptions, sweep_workerd, fleet_registryd and
// perf_bench.  A binary declares its "--name=VALUE" flags and bare
// "--name" switches as Flag rows - a name, a metavar and a setter that
// parses and range-checks the value - and the combinations it refuses as
// Rule rows.  parse() runs the setters in argv order (a repeated flag
// sets again; list setters append), then checks the required flags and
// the rules in table order.  The first refusal prints
//
//   PROG: bad argument 'ARG' (WHY)
//   usage: PROG [--name=METAVAR] [--switch] ...
//
// to stderr - the synopsis generated from the table - and exits 2.  The
// parser is strict because a typo'd flag silently falling back to its
// default once cost a day of benchmarking against the wrong sample count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

namespace rbx {

// Strict non-negative integer parse: rejects empty strings, signs,
// whitespace, non-digit suffixes and out-of-range values.
bool parse_strict_u64(const char* text, std::uint64_t* out);

namespace flags {

// Parses one value into its target: returns "" when the value is
// accepted, else why it is refused.  A switch's setter gets "".
using Setter = std::function<std::string(const std::string& value)>;

struct Flag {
  std::string name;     // "--samples"
  std::string metavar;  // "N": takes "=VALUE"; empty: a switch
  Setter set;
  bool required = false;
};

// Refuses `flag` given without any of `needs` (if non-empty), or together
// with any of `excludes`.
struct Rule {
  std::string flag;
  std::vector<std::string> needs;
  std::vector<std::string> excludes;
  std::string why;
};

struct Table {
  std::vector<Flag> flags;
  std::vector<Rule> rules;
};

using Given = std::set<std::string>;  // the names of the flags given

Given parse(int argc, char** argv, const Table& table);

// "usage: PROG [--name=METAVAR] ...", wrapped, ending in a newline.
std::string usage(const std::string& prog, const Table& table);

// Prints the refusal and the usage to stderr and exits 2 - also for a
// refusal a binary can only make after parse().
[[noreturn]] void refuse(const std::string& prog, const std::string& arg,
                         const std::string& why, const Table& table);

// A non-negative integer in [min, max]: malformed text is refused as
// "expected a non-negative integer", an out-of-range value with `why`.
// max is clamped to what T holds, so a value never wraps.
template <typename T>
Setter count(T* target, std::uint64_t min = 0,
             std::uint64_t max = std::numeric_limits<std::uint64_t>::max(),
             const char* why = "expected a non-negative integer") {
  max = std::min<std::uint64_t>(max, std::numeric_limits<T>::max());
  return [=](const std::string& value) -> std::string {
    std::uint64_t parsed = 0;
    if (!parse_strict_u64(value.c_str(), &parsed)) {
      return "expected a non-negative integer";
    }
    if (parsed < min || parsed > max) {
      return why;
    }
    *target = static_cast<T>(parsed);
    return "";
  };
}

// A finite number > 0 (a NaN threshold would compare false against every
// delta and switch a regression gate off).
Setter positive(double* target);

// The value as is; empty is refused with `why_empty` unless that is null.
Setter text(std::string* target, const char* why_empty = nullptr);

// Appends the value as is (a repeatable flag, or a list's entries).
Setter append(std::vector<std::string>* target);

// A switch.
Setter on(bool* target);

// A comma-separated list whose entries go to `each` in order; an empty
// entry (or list) is refused with `why_empty`.
Setter list(const char* why_empty, Setter each);

}  // namespace flags
}  // namespace rbx
