#include "support/flags.h"

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rbx {
namespace flags {
namespace {

// parse() over "prog" followed by `args`.
Given parse_args(std::vector<std::string> args, const Table& table) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return parse(static_cast<int>(argv.size()), argv.data(), table);
}

TEST(Flags, SettersRunInArgvOrderAndListsAppend) {
  std::uint16_t port = 0;
  bool quiet = false;
  std::vector<std::string> items;
  std::string name = "default";
  Table table;
  table.flags = {
      {"--port", "N", count(&port)},
      {"--quiet", "", on(&quiet)},
      {"--items", "a,b", list("empty item", append(&items))},
      {"--name", "STR", text(&name)},
  };
  const Given given = parse_args(
      {"--port=7", "--items=a,b", "--port=65535", "--items=c", "--name="},
      table);
  EXPECT_EQ(port, 65535);  // a repeated flag sets again
  EXPECT_FALSE(quiet);
  EXPECT_EQ(items, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(name, "");  // text() without a why_empty takes "" as is
  EXPECT_EQ(given, (Given{"--port", "--items", "--name"}));
}

TEST(Flags, CountNeverWrapsIntoItsTarget) {
  std::uint16_t port = 9;
  // The max is clamped to what the target holds: 65536 would wrap to 0.
  EXPECT_EQ(count(&port, 1, UINT64_MAX, "out of range")("65536"),
            "out of range");
  EXPECT_EQ(count(&port, 1, UINT64_MAX, "out of range")("0"),
            "out of range");
  EXPECT_EQ(count(&port)("18446744073709551616"),
            "expected a non-negative integer");
  for (const char* bad : {"", "-1", " 1", "+1", "1x", "0x10"}) {
    EXPECT_EQ(count(&port)(bad), "expected a non-negative integer") << bad;
  }
  EXPECT_EQ(port, 9);
  EXPECT_EQ(count(&port)("65535"), "");
  EXPECT_EQ(port, 65535);
}

TEST(Flags, PositiveRefusesWhatWouldDisableAGate) {
  double value = 1.0;
  for (const char* bad : {"nan", "inf", "0", "-1", "1e999", "2x", ""}) {
    EXPECT_EQ(positive(&value)(bad), "expected a positive number") << bad;
  }
  EXPECT_EQ(value, 1.0);
  EXPECT_EQ(positive(&value)("2.5"), "");
  EXPECT_EQ(value, 2.5);
}

TEST(Flags, ListRefusesEveryEmptyEntry) {
  std::vector<std::string> items;
  const Setter set = list("empty item", append(&items));
  for (const char* bad : {"", ",", "a,", ",a", "a,,b"}) {
    EXPECT_EQ(set(bad), "empty item") << bad;
  }
}

TEST(Flags, UsageIsGeneratedFromTheTableAndWrapped) {
  std::string value;
  bool on_off = false;
  Table table;
  table.flags = {
      {"--serve", "PORT", text(&value), /*required=*/true},
      {"--quiet", "", on(&on_off)},
  };
  EXPECT_EQ(usage("prog", table), "usage: prog --serve=PORT [--quiet]\n");
  for (int i = 0; i < 12; ++i) {
    table.flags.push_back({"--flag-" + std::to_string(i), "VALUE",
                           text(&value)});
  }
  std::istringstream lines(usage("prog", table));
  std::string line;
  int count_lines = 0;
  while (std::getline(lines, line)) {
    ++count_lines;
    EXPECT_LE(line.size(), 79u) << line;
    if (count_lines > 1) {
      EXPECT_EQ(line.rfind("       [--flag-", 0), 0u) << line;
    }
  }
  EXPECT_GT(count_lines, 1);
}

TEST(FlagsDeathTest, RefusalsExitTwoNamingTheArgument) {
  std::uint16_t port = 0;
  bool a = false;
  bool b = false;
  bool c = false;
  Table table;
  table.flags = {
      {"--serve", "PORT", count(&port, 0, 65535, "expected a port"),
       /*required=*/true},
      {"--a", "", on(&a)},
      {"--b", "", on(&b)},
      {"--c", "", on(&c)},
  };
  table.rules = {
      {"--a", {"--b", "--c"}, {}, "a needs b or c"},
      {"--b", {}, {"--c"}, "b excludes c"},
  };
  struct Row {
    std::vector<std::string> args;
    const char* stderr_regex;
  };
  const Row rows[] = {
      {{"--serve=1", "--d"}, "prog: bad argument '--d' \\(unknown flag\\)"},
      {{"--serve=1", "--a=1"}, "bad argument '--a=1' \\(unknown flag\\)"},
      {{"--serve"}, "bad argument '--serve' \\(unknown flag\\)"},
      {{"--serve=65536"}, "'--serve=65536' \\(expected a port\\)"},
      {{"--a"}, "bad argument '--serve' \\(required flag missing\\)"},
      {{"--serve=1", "--a"}, "bad argument '--a' \\(a needs b or c\\)"},
      {{"--serve=1", "--b", "--c"}, "bad argument '--b' \\(b excludes c\\)"},
      // Rules are checked in table order.
      {{"--serve=1", "--c", "--a", "--b"}, "\\(b excludes c\\)"},
      // The usage synopsis follows the reason.
      {{"--d"}, "usage: prog --serve=PORT \\[--a\\] \\[--b\\] \\[--c\\]"},
  };
  for (const Row& row : rows) {
    EXPECT_EXIT(parse_args(row.args, table), ::testing::ExitedWithCode(2),
                row.stderr_regex)
        << row.stderr_regex;
  }
  EXPECT_EQ(parse_args({"--serve=0", "--a", "--c"}, table),
            (Given{"--serve", "--a", "--c"}));
}

}  // namespace
}  // namespace flags
}  // namespace rbx
