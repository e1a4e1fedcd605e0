#!/usr/bin/env python3
"""End-to-end sweep benchmark.

Builds the benchmark program (e2e_bench) from this checkout's sources
into .bench_build/e2ebench, runs one workload and prints the program's
summary; the last line of stdout is the result as one JSON object.

    python3 e2ebench/run.py --workload fig5_grid --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all          # each workload in turn
    python3 e2ebench/run.py --selftest

Exit status: the program's (0 = every cell matched the width-1 reference),
2 when the checkout has no library sources or the arguments are bad, 1 when
the build fails or the program times out.  See README.md in this directory
for the workloads and the metrics.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
WORKLOADS = ("fig5_grid", "mc_streams", "analytic_fanout")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave room for the incremental build check.
PROGRAM_TIMEOUT_S = 165


def fail(message, code):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def git_commit():
    """The checkout's commit, read from .git without running git (a
    checkout that is not a repository stamps "unknown")."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def build(target):
    if not (ROOT / "src" / "core" / "api.h").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full "
             "checkout", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1), "--target", target])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), 1)
    return BUILD / target


def run_program(args, workload):
    program = build("e2e_bench")
    work = BUILD / "runs"
    work.mkdir(exist_ok=True)
    cmd = [str(program), f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--commit={git_commit()}", f"--work-dir={work}"]
    # Its own process group, so a timeout takes down forked workers too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"e2e_bench exceeded {PROGRAM_TIMEOUT_S} s", 1)
    lines = out.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(out)
        fail(f"e2e_bench exited with status {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(out)
        fail("e2e_bench printed no result line", 1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        selftest = build("e2e_selftest")
        return subprocess.run([str(selftest)], cwd=BUILD).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return max(run_program(args, w) for w in WORKLOADS)
    return run_program(args, args.workload)


if __name__ == "__main__":
    sys.exit(main())
