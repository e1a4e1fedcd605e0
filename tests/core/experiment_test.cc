#include "core/experiment.h"

#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rbx {
namespace {

// parse() over a bench argv: "bench" followed by `args`.
ExperimentOptions parse_args(std::vector<std::string> args,
                             std::size_t default_samples = 100,
                             std::size_t default_nmax = 2) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return ExperimentOptions::parse(static_cast<int>(argv.size()), argv.data(),
                                  default_samples, default_nmax);
}

TEST(ExperimentOptions, Defaults) {
  const auto opts = parse_args({}, 5000, 7);
  EXPECT_EQ(opts.samples, 5000u);
  EXPECT_EQ(opts.nmax, 7u);
  EXPECT_EQ(opts.threads, 0u);  // 0 = hardware concurrency (ThreadLane)
}

TEST(ExperimentOptions, ParsesFlags) {
  const auto opts = parse_args(
      {"--samples=123", "--nmax=4", "--seed=99", "--threads=16"}, 5000, 7);
  EXPECT_EQ(opts.samples, 123u);
  EXPECT_EQ(opts.nmax, 4u);
  EXPECT_EQ(opts.seed, 99u);
  EXPECT_EQ(opts.threads, 16u);
}

TEST(ExperimentOptions, ZeroValuesFallBackToDefaults) {
  const auto opts = parse_args({"--samples=0"}, 5000, 7);
  EXPECT_EQ(opts.samples, 5000u);
}

// Every refusal of the bench flags: an argv (after the program name) that
// must exit 2 with `reason` on stderr.  The flags are strict because a
// typo'd flag silently falling back to a default once cost a day of
// benchmarking against the wrong sample count.
struct Refusal {
  std::vector<std::string> args;
  const char* reason;
};

const Refusal kRefusals[] = {
    // Unknown flags, including a value on a switch.
    {{"--whatever=3"}, "unknown flag"},
    {{"--steal=1"}, "unknown flag"},
    // Malformed numbers.  strtoull would skip the space in "= -5" and wrap
    // -5 to a huge uint64; the parser must not let it.
    {{"--samples=12abc"}, "non-negative integer"},
    {{"--nmax=-4"}, "non-negative integer"},
    {{"--samples= -5"}, "non-negative integer"},
    {{"--seed="}, "non-negative integer"},
    {{"--workers=-1"}, "non-negative integer"},
    {{"--batch=-2"}, "non-negative integer"},
    {{"--batch=8x"}, "non-negative integer"},
    // Out-of-range values.
    {{"--threads=0"}, "thread count"},
    {{"--streams=0"}, "stream count"},
    {{"--workers=0"}, "worker count"},
    {{"--connect=h:1", "--handshake-timeout-ms=0"},
     "positive millisecond count"},
    {{"--shard=0/2", "--shard-serve=65536"}, "0..65535"},
    // The grant cap travels as a u32: 2^32 would wrap to "no cap" and
    // 2^32 + 1 to a cap of one member.
    {{"--fleet=127.0.0.1:4700", "--fleet-workers=4294967296"},
     "at most 4294967295"},
    {{"--fleet=127.0.0.1:4700", "--fleet-workers=4294967297"},
     "at most 4294967295"},
    // Malformed shard specs.
    {{"--shard=3/2"}, "shard index must be < shard"},
    {{"--shard=2/2"}, "shard index must be < shard"},
    {{"--shard=0"}, "bad argument"},
    {{"--shard=/2"}, "bad argument"},
    {{"--shard=1/"}, "bad argument"},
    {{"--shard=a/2"}, "bad argument"},
    {{"--shard=1/b"}, "bad argument"},
    {{"--shard=-1/2"}, "bad argument"},
    {{"--shard=0/0"}, "bad argument"},
    {{"--shard="}, "bad argument"},
    // Malformed lists and paths.
    {{"--merge="}, "bad argument"},
    {{"--merge=a,,b"}, "bad argument"},
    {{"--merge=a,"}, "bad argument"},
    {{"--connect=hostA"}, "host:port"},
    {{"--connect=hostA:0"}, "1..65535"},
    {{"--connect=hostA:1,"}, "empty endpoint"},
    {{"--resume="}, "journal file path"},
    // The rule table: flags that need or exclude one another.
    {{"--merge=a.rbxw,b.rbxw", "--shard=0/2"}, "cannot combine"},
    {{"--connect=h:1", "--merge=a"}, "--connect is meaningless"},
    {{"--fleet=h:1", "--connect=h:2"}, "contradictory"},
    {{"--fleet=h:1", "--merge=a"}, "--fleet is meaningless"},
    {{"--fleet-workers=2"}, "only applies to --fleet runs"},
    {{"--auth-key-file=k"}, "only remote daemons authenticate"},
    // --batch silently doing nothing on a threads-only run is exactly the
    // "typo'd flag" trap the strict parser exists to prevent.
    {{"--batch=16"}, "only applies"},
    {{"--steal", "--threads=8"}, "only applies"},
    {{"--handshake-timeout-ms=5"}, "only applies to --connect or --fleet"},
    {{"--journal=a.rbxj", "--resume=b.rbxj"}, "pick one"},
    // --merge evaluates nothing, so journaling or resuming it is a user
    // error, refused up front.
    {{"--resume=a.rbxj", "--merge=x.rbxw"}, "nothing to"},
    {{"--journal=a.rbxj", "--merge=x.rbxw"}, "nothing to journal"},
    {{"--journal=a.rbxj", "--shard=0/2"}, "whole sweeps"},
    {{"--resume=a.rbxj", "--shard=0/2"}, "whole sweeps"},
    {{"--no-cache"}, "--connect or --fleet runs"},
    {{"--shard-out=f.rbxw"}, "requires --shard"},
    {{"--shard-serve=4711"}, "requires --shard"},
    {{"--shard=0/2", "--shard-out=f.rbxw", "--shard-serve=4711"},
     "cannot combine"},
};

TEST(ExperimentOptionsDeathTest, RefusalMatrix) {
  for (const Refusal& row : kRefusals) {
    std::string argv_text;
    for (const std::string& arg : row.args) {
      argv_text += " " + arg;
    }
    EXPECT_EXIT(parse_args(row.args), ::testing::ExitedWithCode(2),
                row.reason)
        << argv_text;
  }
}

TEST(ExperimentOptions, ParsesWorkersShardAndMerge) {
  const auto opts = parse_args(
      {"--workers=4", "--shard=1/3", "--shard-out=journal.rbxw"}, 5000, 7);
  EXPECT_EQ(opts.workers, 4u);
  EXPECT_EQ(opts.shard.index, 1u);
  EXPECT_EQ(opts.shard.count, 3u);
  EXPECT_TRUE(opts.shard.active());
  EXPECT_EQ(opts.shard_out, "journal.rbxw");
  EXPECT_TRUE(opts.merge_inputs.empty());
}

TEST(ExperimentOptions, ShardOutDefaultsFromShardSpec) {
  const auto opts = parse_args({"--shard=0/2"}, 5000, 7);
  EXPECT_EQ(opts.shard_out, "shard-0-of-2.rbxw");
}

TEST(ExperimentOptions, PrefixNeighboursParseAsTheirOwnFlags) {
  // "--shard-out=" and "--shard=" share a prefix, as do "--fleet=" and
  // "--fleet-workers="; each must reach its own flag in either order.
  const auto shard = parse_args({"--shard-out=f", "--shard=0/2"});
  EXPECT_EQ(shard.shard_out, "f");
  EXPECT_EQ(shard.shard.index, 0u);
  EXPECT_EQ(shard.shard.count, 2u);
  const auto fleet = parse_args({"--fleet=h:1", "--fleet-workers=2"});
  EXPECT_EQ(fleet.fleet.host, "h");
  EXPECT_EQ(fleet.fleet.port, 1);
  EXPECT_EQ(fleet.fleet_workers, 2u);
}

TEST(ExperimentOptions, AcceptsDegenerateOneWayShard) {
  // --shard=0/1 is a valid (if trivial) split: one shard owning every
  // cell.  It must still get a journal path so the bench journals its
  // cells instead of silently running in normal mode.
  const auto opts = parse_args({"--shard=0/1"}, 5000, 7);
  EXPECT_EQ(opts.shard.index, 0u);
  EXPECT_EQ(opts.shard.count, 1u);
  EXPECT_EQ(opts.shard_out, "shard-0-of-1.rbxw");
}

TEST(ExperimentOptions, ParsesMergeFileList) {
  const auto opts = parse_args({"--merge=a.rbxw,b.rbxw,c.rbxw"}, 5000, 7);
  ASSERT_EQ(opts.merge_inputs.size(), 3u);
  EXPECT_EQ(opts.merge_inputs[0], "a.rbxw");
  EXPECT_EQ(opts.merge_inputs[1], "b.rbxw");
  EXPECT_EQ(opts.merge_inputs[2], "c.rbxw");
}

TEST(ExperimentOptions, ParsesBatchAndConnect) {
  const auto opts =
      parse_args({"--batch=16", "--connect=hostA:4701,127.0.0.1:4702"});
  EXPECT_EQ(opts.batch, 16u);
  ASSERT_EQ(opts.connect.size(), 2u);
  EXPECT_EQ(opts.connect[0].host, "hostA");
  EXPECT_EQ(opts.connect[0].port, 4701);
  EXPECT_EQ(opts.connect[1].host, "127.0.0.1");
  EXPECT_EQ(opts.connect[1].port, 4702);
}

TEST(ExperimentOptions, RepeatedListFlagsAppend) {
  const auto connect = parse_args({"--connect=a:1", "--connect=b:2"});
  ASSERT_EQ(connect.connect.size(), 2u);
  EXPECT_EQ(connect.connect[0].host, "a");
  EXPECT_EQ(connect.connect[0].port, 1);
  EXPECT_EQ(connect.connect[1].host, "b");
  EXPECT_EQ(connect.connect[1].port, 2);
  const auto merge = parse_args({"--merge=x", "--merge=y,z"});
  ASSERT_EQ(merge.merge_inputs.size(), 3u);
  EXPECT_EQ(merge.merge_inputs[2], "z");
}

TEST(ExperimentOptions, BatchZeroMeansAdaptive) {
  const auto opts = parse_args({"--batch=0", "--workers=2"});
  EXPECT_EQ(opts.batch, 0u);
}

TEST(ExperimentOptions, ThreadsWorkersAndConnectComposeIntoOneHybridRun) {
  // The lane flags compose: one sweep can span in-process threads, forked
  // workers and remote daemons at once.
  const auto opts =
      parse_args({"--threads=8", "--workers=4",
                  "--connect=hostA:4701,hostB:4701", "--steal", "--batch=2"});
  EXPECT_EQ(opts.threads, 8u);  // named (non-zero): SweepRunner adds the lane
  EXPECT_EQ(opts.workers, 4u);
  ASSERT_EQ(opts.connect.size(), 2u);
  EXPECT_TRUE(opts.steal);
  EXPECT_EQ(opts.batch, 2u);
}

TEST(ExperimentOptions, ThreadLaneOnlyWhenNamedAlongsideWorkerLanes) {
  // Without --threads, a --workers/--connect run gets no thread lane (the
  // pre-hybrid behavior) - even for a bench whose default_threads would
  // size one.  threads == 0 is how SweepRunner knows, so every cell of a
  // --workers=1 sweep evaluates in a forked child, never in this process.
  const auto opts = parse_args({"--workers=1"});
  EXPECT_EQ(opts.threads, 0u);
  SweepRunner runner(opts, /*default_threads=*/1);
  const pid_t self = ::getpid();
  const std::vector<Scenario> cells(8, Scenario::symmetric(2, 1.0, 1.0));
  const auto results =
      runner.run(cells, CellFn([](const Scenario&, std::size_t) {
                   ResultSet r;
                   r.set("pid", static_cast<double>(::getpid()));
                   return r;
                 }));
  ASSERT_TRUE(results.has_value());
  ASSERT_EQ(results->size(), cells.size());
  for (const ResultSet& r : *results) {
    EXPECT_NE(r.value("pid"), static_cast<double>(self));
  }
}

TEST(ExperimentOptions, StealComposesWithWorkersAlone) {
  // --steal was once --connect-only; any worker lane now qualifies.
  const auto opts = parse_args({"--workers=2", "--steal"});
  EXPECT_TRUE(opts.steal);
}

TEST(ExperimentOptions, ParsesShardServe) {
  const auto opts = parse_args({"--shard=0/2", "--shard-serve=4711"});
  EXPECT_TRUE(opts.shard_mode);
  EXPECT_TRUE(opts.shard_serve);
  EXPECT_EQ(opts.shard_serve_port, 4711);
  // Serving replaces the journal file; no default path is invented.
  EXPECT_TRUE(opts.shard_out.empty());
}

TEST(ExperimentOptions, FleetWorkersCapIsAU32) {
  // 2^32 - 1 is the largest grant cap (the refusal matrix covers 2^32).
  const auto opts =
      parse_args({"--fleet=127.0.0.1:4700", "--fleet-workers=4294967295"});
  EXPECT_EQ(opts.fleet_workers, 4294967295u);
}

TEST(ExperimentOptions, MergeAcceptsSocketSourcesAlongsideFiles) {
  // A merge source that parses as HOST:PORT is a socket to a
  // --shard-serve run; anything else stays a file path.
  const auto opts = parse_args({"--merge=shard0.rbxw,127.0.0.1:4712"});
  ASSERT_EQ(opts.merge_inputs.size(), 2u);
  EXPECT_EQ(opts.merge_inputs[0], "shard0.rbxw");
  EXPECT_EQ(opts.merge_inputs[1], "127.0.0.1:4712");
}

TEST(ExperimentOptions, JournalFlagsParse) {
  const auto opts = parse_args({"--journal=sweep.rbxj"});
  EXPECT_EQ(opts.journal, "sweep.rbxj");
  EXPECT_TRUE(opts.resume.empty());
  EXPECT_FALSE(opts.no_cache);
}

TEST(Formatting, CiString) {
  EXPECT_EQ(fmt_ci(1.2345, 0.01, 2), "1.23 +- 0.01");
}

TEST(Formatting, Deviation) {
  EXPECT_EQ(fmt_dev(110.0, 100.0), "+10.00%");
  EXPECT_EQ(fmt_dev(95.0, 100.0), "-5.00%");
  EXPECT_EQ(fmt_dev(1.0, 0.0), "n/a");
}

}  // namespace
}  // namespace rbx
