#!/usr/bin/env python3
"""A/B two micro_components builds side by side, so host drift cancels.

    python3 tools/micro_ab.py PARENT CHANGE --filter REGEX [--rounds N]
        [--cpus A,B]

PARENT and CHANGE are two micro_components binaries. The benchmarks are
those REGEX selects in both (--benchmark_list_tests). Each round runs
every one of them in its own pair of processes, one per side, both at
once, each pinned to its own CPU, and swaps the two CPUs for the next
round. A drift of the host's speed then hits both sides alike, and
neither side keeps the faster CPU, whereas two sequential A/B sets of
the same builds have disagreed by more than the change being measured.
A benchmark never shares a process with another, because its time
depended on which ran before it: a case read 1.12x or 0.98x by
registration order alone.

Prints, for every benchmark, the median real time per side over the
rounds (in ns) and the change/parent ratio of the medians. A ratio below
1 means the change is faster. The CPUs default to the first two this
process may run on; the two sides never share one.

Exit status: 0 on success, 1 if a binary fails, 2 on a usage error.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

# Google Benchmark time units, in nanoseconds.
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="the parent's micro_components")
    parser.add_argument("change", help="the change's micro_components")
    parser.add_argument("--filter", required=True,
                        help="--benchmark_filter regex for both binaries")
    parser.add_argument("--rounds", type=int, default=10,
                        help="rounds; each runs both sides once (10)")
    parser.add_argument("--cpus", default=None,
                        help="two CPUs, e.g. 2,3 (default: the first two "
                             "allowed)")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.cpus is None:
        allowed = sorted(os.sched_getaffinity(0))
        if len(allowed) < 2:
            parser.error("needs two CPUs; this process may use %d" %
                         len(allowed))
        args.cpus = allowed[:2]
    else:
        try:
            args.cpus = [int(c) for c in args.cpus.split(",")]
        except ValueError:
            parser.error("--cpus takes two integers, e.g. 2,3")
        if len(args.cpus) != 2 or args.cpus[0] == args.cpus[1]:
            parser.error("--cpus takes two different CPUs")
    for path in (args.parent, args.change):
        if not os.access(path, os.X_OK):
            parser.error("%s is not an executable" % path)
    return args


def list_benchmarks(binary, regex):
    """The names of the benchmarks `regex` selects in `binary`, in order."""
    listing = subprocess.run(
        [binary, "--benchmark_list_tests=true",
         "--benchmark_filter=" + regex],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if listing.returncode != 0:
        print("micro_ab: %s --benchmark_list_tests exited with status %d" %
              (binary, listing.returncode), file=sys.stderr)
        sys.exit(1)
    return [line.strip() for line in listing.stdout.splitlines()
            if line.strip()]


def start(binary, cpu, out_path, name):
    """Starts benchmark `name` alone, pinned to `cpu`, writing JSON to
    out_path."""
    command = [binary, "--benchmark_filter=^%s$" % re.escape(name),
               "--benchmark_out=" + out_path, "--benchmark_out_format=json"]
    return subprocess.Popen(
        command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))


def real_times_ns(process, binary, out_path):
    """Each benchmark's real time in ns from a finished run's JSON."""
    if process.wait() != 0:
        print("micro_ab: %s exited with status %d" %
              (binary, process.returncode), file=sys.stderr)
        sys.exit(1)
    # A filter that matches nothing leaves the output empty (exit 0).
    if not os.path.exists(out_path) or os.path.getsize(out_path) == 0:
        print("micro_ab: %s ran no benchmark matching --filter" % binary,
              file=sys.stderr)
        sys.exit(1)
    with open(out_path) as f:
        runs = json.load(f)["benchmarks"]
    times = {}
    for run in runs:
        if run.get("run_type") == "aggregate":
            continue
        times[run["name"]] = run["real_time"] * UNIT_NS[run["time_unit"]]
    return times


def main():
    args = parse_args()
    sides = {"parent": args.parent, "change": args.change}
    in_change = set(list_benchmarks(args.change, args.filter))
    names = [n for n in list_benchmarks(args.parent, args.filter)
             if n in in_change]
    if not names:
        print("micro_ab: no benchmark matched --filter in both binaries",
              file=sys.stderr)
        sys.exit(1)
    samples = {"parent": {}, "change": {}}
    with tempfile.TemporaryDirectory(prefix="micro_ab.") as tmp_dir:
        out = {side: os.path.join(tmp_dir, side + ".json") for side in sides}
        for r in range(args.rounds):
            # Swap CPUs every round: the parent takes cpus[0] on even
            # rounds.
            cpu = {"parent": args.cpus[r % 2], "change": args.cpus[1 - r % 2]}
            for name in names:
                for path in out.values():  # never read an earlier run's
                    if os.path.exists(path):
                        os.remove(path)
                running = {side: start(binary, cpu[side], out[side], name)
                           for side, binary in sides.items()}
                try:
                    for side, process in running.items():
                        for run_name, ns in real_times_ns(
                                process, sides[side], out[side]).items():
                            samples[side].setdefault(run_name, []).append(ns)
                finally:
                    for process in running.values():  # after a failed side
                        if process.poll() is None:
                            process.kill()
                            process.wait()
            print("round %d/%d done" % (r + 1, args.rounds), file=sys.stderr)

    names = [n for n in samples["parent"] if n in samples["change"]]
    width = max(len("benchmark"), max(len(n) for n in names))
    print("%-*s %14s %14s %14s" % (width, "benchmark", "parent ns",
                                    "change ns", "change/parent"))
    for name in names:
        parent = statistics.median(samples["parent"][name])
        change = statistics.median(samples["change"][name])
        print("%-*s %14.0f %14.0f %14.3f" % (width, name, parent, change,
                                              change / parent))


if __name__ == "__main__":
    main()
