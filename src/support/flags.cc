#include "support/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

namespace rbx {

// strtoull itself skips leading whitespace and negates '-' values into
// huge uint64s, so insist the text starts with a digit.
bool parse_strict_u64(const char* text, std::uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

namespace flags {

Given parse(int argc, char** argv, const Table& table) {
  const std::string prog = argc > 0 ? argv[0] : "?";
  const auto any_given = [](const Given& given,
                            const std::vector<std::string>& names) {
    return std::any_of(names.begin(), names.end(), [&](const auto& name) {
      return given.count(name) != 0;
    });
  };
  Given given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    // A switch takes no "=VALUE", and a value flag needs one.
    const auto flag = std::find_if(
        table.flags.begin(), table.flags.end(), [&](const Flag& row) {
          return row.name == name &&
                 row.metavar.empty() == (eq == std::string::npos);
        });
    if (flag == table.flags.end()) {
      refuse(prog, arg, "unknown flag", table);
    }
    const std::string why =
        flag->set(eq == std::string::npos ? "" : arg.substr(eq + 1));
    if (!why.empty()) {
      refuse(prog, arg, why, table);
    }
    given.insert(name);
  }
  for (const Flag& flag : table.flags) {
    if (flag.required && given.count(flag.name) == 0) {
      refuse(prog, flag.name, "required flag missing", table);
    }
  }
  for (const Rule& rule : table.rules) {
    if (given.count(rule.flag) != 0 &&
        ((!rule.needs.empty() && !any_given(given, rule.needs)) ||
         any_given(given, rule.excludes))) {
      refuse(prog, rule.flag, rule.why, table);
    }
  }
  return given;
}

std::string usage(const std::string& prog, const Table& table) {
  std::string out = "usage: ";
  out += prog;
  std::size_t line_start = 0;
  for (const Flag& flag : table.flags) {
    std::string item = flag.name;
    if (!flag.metavar.empty()) {
      item += "=" + flag.metavar;
    }
    if (!flag.required) {
      item = "[" + item + "]";
    }
    if (out.size() - line_start + 1 + item.size() > 79) {
      line_start = out.size() + 1;
      out += "\n      ";
    }
    out += " " + item;
  }
  return out + "\n";
}

void refuse(const std::string& prog, const std::string& arg,
            const std::string& why, const Table& table) {
  std::fprintf(stderr, "%s: bad argument '%s' (%s)\n%s", prog.c_str(),
               arg.c_str(), why.c_str(), usage(prog, table).c_str());
  std::exit(2);
}

Setter positive(double* target) {
  return [target](const std::string& value) -> std::string {
    try {
      std::size_t end = 0;
      const double v = std::stod(value, &end);
      if (end == value.size() && std::isfinite(v) && v > 0.0) {
        *target = v;
        return "";
      }
    } catch (const std::exception&) {
      // Not a number, or beyond double's range: refused below.
    }
    return "expected a positive number";
  };
}

Setter text(std::string* target, const char* why_empty) {
  return [target, why_empty](const std::string& value) -> std::string {
    if (value.empty() && why_empty != nullptr) {
      return why_empty;
    }
    *target = value;
    return "";
  };
}

Setter append(std::vector<std::string>* target) {
  return [target](const std::string& value) {
    target->push_back(value);
    return std::string();
  };
}

Setter on(bool* target) {
  return [target](const std::string&) {
    *target = true;
    return std::string();
  };
}

Setter list(const char* why_empty, Setter each) {
  return [why_empty, each = std::move(each)](const std::string& value) {
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = value.find(',', start);
      const std::string entry = value.substr(start, comma - start);
      const std::string why = entry.empty() ? why_empty : each(entry);
      if (!why.empty() || comma == std::string::npos) {
        return why;
      }
      start = comma + 1;
    }
  };
}

}  // namespace flags
}  // namespace rbx
