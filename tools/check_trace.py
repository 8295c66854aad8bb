#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file written by --trace-out=.

The exporters (obs::TraceCollector::WriteChromeTrace, used by mpqopt_cli
and macrobench) emit one flat JSON array of complete ("ph": "X") events;
chrome://tracing and Perfetto load it directly. CI runs this after the
macro smoke so a malformed export — or a silent loss or misplacement of
the worker-side spans the master builds from each rpc reply's timings —
fails the build instead of shipping an unloadable artifact.

Checks, in order:
  1. the file parses as one JSON array with at least one event;
  2. every event has the complete-event shape: name/ph/pid/tid/ts/dur
     with ph == "X", numeric non-negative ts/dur, and a numeric tid
     (the trace id) plus an args.trace_id matching it;
  3. with --expect-spans=a,b,...: each named span appears in at least
     one event;
  4. with --expect-worker-spans: at least one worker.serve event exists
     AND shares its tid with a master-side service.optimize event —
     i.e. the worker spans landed in the trace of the query whose frame
     the worker served — and they sit where the master put them: every
     worker.compute event lies inside a worker.serve event of the same
     trace, and every worker.serve event inside an rpc.exchange event of
     the same trace.

Exit codes: 0 valid, 1 validation failure, 2 usage/input error.
"""

import argparse
import json
import sys

REQUIRED_KEYS = ("name", "ph", "pid", "tid", "ts", "dur")
# The export rounds ts and dur to 0.001 us each, so an event's end
# (ts + dur) may be off by two rounding steps.
SLACK_US = 0.002


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    return 1


def first_uncontained(events, inner, outer):
    """The first `inner` event lying inside no `outer` event of its
    trace (same tid), or None."""
    outers = {}
    for e in events:
        if e["name"] == outer:
            outers.setdefault(e["tid"], []).append(e)
    for e in events:
        if e["name"] != inner:
            continue
        if not any(
            e["ts"] >= o["ts"] - SLACK_US
            and e["ts"] + e["dur"] <= o["ts"] + o["dur"] + SLACK_US
            for o in outers.get(e["tid"], [])
        ):
            return e
    return None


def main():
    parser = argparse.ArgumentParser(
        description="Validate a --trace-out= Chrome trace-event JSON file."
    )
    parser.add_argument("trace", help="trace JSON file to validate")
    parser.add_argument(
        "--expect-spans",
        default="",
        metavar="CSV",
        help="comma-separated span names that must each appear at least once",
    )
    parser.add_argument(
        "--expect-worker-spans",
        action="store_true",
        help="require worker.serve events sharing a trace id (tid) with "
        "master-side service.optimize events",
    )
    args = parser.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            events = json.load(f)
    except (OSError, ValueError) as err:
        print(f"check_trace: cannot read {args.trace}: {err}", file=sys.stderr)
        return 2
    if not isinstance(events, list):
        return fail("top-level JSON value is not an array")
    if not events:
        return fail("trace contains no events")

    names = set()
    tids_by_name = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            return fail(f"event {i} is not an object")
        missing = [k for k in REQUIRED_KEYS if k not in event]
        if missing:
            return fail(f"event {i} is missing keys: {', '.join(missing)}")
        if event["ph"] != "X":
            return fail(f"event {i}: ph is {event['ph']!r}, expected 'X'")
        for key in ("ts", "dur"):
            value = event[key]
            if not isinstance(value, (int, float)) or value < 0:
                return fail(f"event {i}: {key} is not a non-negative number")
        if not isinstance(event["tid"], int):
            return fail(f"event {i}: tid (the trace id) is not an integer")
        trace_id = event.get("args", {}).get("trace_id")
        if trace_id != event["tid"]:
            return fail(
                f"event {i}: args.trace_id ({trace_id!r}) does not match "
                f"tid ({event['tid']!r})"
            )
        names.add(event["name"])
        tids_by_name.setdefault(event["name"], set()).add(event["tid"])

    for wanted in [s for s in args.expect_spans.split(",") if s]:
        if wanted not in names:
            return fail(f"expected span {wanted!r} appears in no event")

    if args.expect_worker_spans:
        worker_tids = tids_by_name.get("worker.serve", set())
        master_tids = tids_by_name.get("service.optimize", set())
        if not worker_tids:
            return fail("no worker.serve events — worker-side spans lost")
        joined = worker_tids & master_tids
        if not joined:
            return fail(
                "worker.serve and service.optimize events never share a "
                "trace id — worker spans landed in no query's trace"
            )
        for inner, outer in (
            ("worker.compute", "worker.serve"),
            ("worker.serve", "rpc.exchange"),
        ):
            stray = first_uncontained(events, inner, outer)
            if stray is not None:
                return fail(
                    f"{inner} event at ts {stray['ts']} (trace "
                    f"{stray['tid']}) lies inside no {outer} event of its "
                    "trace"
                )

    print(
        f"check_trace: OK: {len(events)} events, {len(names)} distinct "
        f"spans across {len({e['tid'] for e in events})} traces"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
