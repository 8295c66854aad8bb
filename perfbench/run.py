#!/usr/bin/env python3
"""One run of one serving-path workload: build, run, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the mpqopt library, the
mpqopt_worker server and the mpq_perfbench binary from source with CMake
into $CARGO_TARGET_DIR (default .bench_build), runs one workload, and
prints the binary's report followed, as the last stdout line, by one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.

Exact-repeat guard: the work counts of a run (arrivals, hit share, bytes,
DP splits and plans costed per query, peak memo size, and a digest of
every returned plan) depend on the seed and the source alone. The first
run of a seed records them under the build directory, keyed by a hash of
the sources the binaries are built from; every later run of that seed
on the same sources must reproduce them exactly or it fails.

Exit status: 0 on a correct run, 1 on a failed check, 2 on a usage or
build error.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
# What the binaries are built from, relative to the repository root.
SOURCE_DIRS = ("src", "perfbench")
SOURCE_FILES = ("CMakeLists.txt", "tests/rpc_test_util.h")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    return args


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    path = os.path.join(REPO_ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def build(build_dir):
    """Configures (once) and builds mpq_perfbench and the worker server."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(REPO_ROOT, needed)):
            fail("%s not found next to perfbench/: run from the mpqopt "
                 "source tree" % needed)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j4", "--target", "mpq_perfbench",
         "mpqopt_worker"],
        check=True, stdout=sys.stderr)


def run_bench(cmd):
    """Runs mpq_perfbench in its own process group, so any process it leaves
    behind (it should leave none) is killed with the group."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        fail("mpq_perfbench timed out after %d s" % RUN_TIMEOUT_S, 1)
    return proc.returncode, out


def source_fingerprint():
    """Hash of every source file the binaries are built from, so that a
    build directory shared by two versions of the code keeps their guard
    records apart."""
    paths = [os.path.join(REPO_ROOT, f) for f in SOURCE_FILES]
    for top in SOURCE_DIRS:
        for root, dirs, files in os.walk(os.path.join(REPO_ROOT, top)):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            paths.extend(os.path.join(root, f) for f in files)
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, REPO_ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()[:16]


def check_guard(build_dir, args, guard):
    """Compares the run's work counts with the first run of this seed (and
    run length, which sets the arrival count) on the same sources."""
    guard_dir = os.path.join(build_dir, "perfbench_guard")
    os.makedirs(guard_dir, exist_ok=True)
    path = os.path.join(guard_dir, "%s-seed%d-%ds-%s.json"
                        % (args.workload, args.seed, args.seconds,
                           source_fingerprint()))
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(guard, f, sort_keys=True)
        return True
    with open(path) as f:
        recorded = json.load(f)
    if recorded == guard:
        return True
    print("EXACT-REPEAT GUARD FAILED for %s seed %d:"
          % (args.workload, args.seed))
    for key in sorted(set(recorded) | set(guard)):
        if recorded.get(key) != guard.get(key):
            print("  %s: first run %s, this run %s"
                  % (key, recorded.get(key), guard.get(key)))
    return False


def main():
    args = parse_args()
    spec, declared = declared_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %s" % args.workload)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)

    spans_dir = os.path.join(build_dir, "perfbench_spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "mpq_perfbench"),
           "--workload=%s" % args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace,
           "--worker-bin=%s" % os.path.join(build_dir, "mpqopt",
                                            "mpqopt_worker"),
           "--spans-out=%s" % os.path.join(
               spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    code, out = run_bench(cmd)
    lines = out.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("mpq_perfbench exited %d without a result" % code, 1)
    for line in lines[:-1]:
        print(line)

    correct = bool(report["correct"]) and code == 0
    correct = check_guard(build_dir, args, report["guard"]) and correct
    metrics = report["metrics"]
    produced = {name: m["unit"] for name, m in metrics.items()}
    if produced != declared:
        print("metrics differ from BENCHMARK.json: produced %s, declared %s"
              % (sorted(produced.items()), sorted(declared.items())))
        correct = False
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
