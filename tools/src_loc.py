#!/usr/bin/env python3
"""Count the library's non-blank source lines, per module and in total.

Writes records in the BenchJsonWriter schema (bench/bench_common.h), so
code size is tracked across merges like any other benchmark series:

  {"bench": "src_loc", "config": "module=cluster",
   "metric": "nonblank_lines", "value": 4321, "units": "lines",
   "build": "source", "source": "<git revision>"}

One record per top-level directory under src/ (subdirectories count
toward their module) and one with config "module=total". The unit
"lines" is neither a drift unit nor a timing unit of tools/bench_diff.py,
so bench_diff reports a size delta and never gates on it.

usage: python3 tools/src_loc.py [ROOT] [--json=PATH]

ROOT defaults to the checkout holding this script; pass another
checkout to count it instead. Standard library only.
"""

import argparse
import json
import os
import subprocess
import sys


def count_nonblank(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return sum(1 for line in f if line.strip())


def count_modules(src_dir):
    """Returns {module: non-blank lines} over every file under src_dir."""
    modules = {}
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            module = os.path.relpath(path, src_dir).split(os.sep)[0]
            modules[module] = modules.get(module, 0) + count_nonblank(path)
    return modules


def source_revision(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(
        description="Count non-blank lines per src/ module."
    )
    parser.add_argument("root", nargs="?", default=default_root,
                        help="checkout to count (default: this one)")
    parser.add_argument("--json", metavar="PATH",
                        help="write BenchJsonWriter-schema records here")
    args = parser.parse_args()

    src_dir = os.path.join(args.root, "src")
    if not os.path.isdir(src_dir):
        sys.exit(f"src_loc: no src/ directory under {args.root}")
    modules = count_modules(src_dir)
    rows = sorted(modules.items()) + [("total", sum(modules.values()))]

    width = max(len(name) for name, _ in rows)
    for name, lines in rows:
        print(f"{name:<{width}}  {lines:>7}")

    if args.json:
        revision = source_revision(args.root)
        records = [
            json.dumps({
                "bench": "src_loc",
                "config": f"module={name}",
                "metric": "nonblank_lines",
                "value": lines,
                "units": "lines",
                "build": "source",
                "source": revision,
            })
            for name, lines in rows
        ]
        with open(args.json, "w", encoding="utf-8") as f:
            f.write("[\n  " + ",\n  ".join(records) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
