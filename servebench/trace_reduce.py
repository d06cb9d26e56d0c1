"""Reduce a QueryServer::DumpTrace file (Chrome trace_event JSON) to
per-span counts and self time.

A span's self time is its duration minus the part covered by the spans
nested inside it on the same thread. `queue` spans are excluded from the
nesting: the dispatcher records them retroactively (submit time to flush
time), so they overlap each other and the `flush` span that emits them
without being part of either.

Usage: python3 servebench/trace_reduce.py TRACE.json
"""

import json
import sys
from collections import defaultdict

# Spans the benchmark reports (README.md, "Traced run").
SPANS = ("admit", "queue", "flush", "session_checkout", "session_build",
         "session_warm", "morsel_exec", "exec_mc", "arena_build",
         "delta_probe", "finalize", "compact")

# Recorded after the fact with an earlier begin; never a parent or a child.
UNNESTED = frozenset({"queue"})

# Timestamps are microseconds with sub-microsecond digits; allow rounding.
_EPS = 1e-3


def reduce_events(events):
    """Return {name: {"count": n, "self_us": total, "dur_us": total}}."""
    by_thread = defaultdict(list)
    totals = defaultdict(lambda: {"count": 0, "self_us": 0.0, "dur_us": 0.0})
    for event in events:
        if event.get("ph") != "X":
            continue
        name = event["name"]
        ts, dur = float(event["ts"]), float(event.get("dur", 0.0))
        if name in UNNESTED:
            entry = totals[name]
            entry["count"] += 1
            entry["self_us"] += dur
            entry["dur_us"] += dur
            continue
        by_thread[(event.get("pid"), event.get("tid"))].append([ts, dur, name, 0.0])

    for spans in by_thread.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for span in spans:
            start, end = span[0], span[0] + span[1]
            while stack and not (start >= stack[-1][0] - _EPS and
                                 end <= stack[-1][0] + stack[-1][1] + _EPS):
                stack.pop()
            if stack:
                stack[-1][3] += span[1]
            stack.append(span)
        for start, dur, name, children in spans:
            entry = totals[name]
            entry["count"] += 1
            entry["self_us"] += max(0.0, dur - children)
            entry["dur_us"] += dur
    return totals


def reduce_file(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return reduce_events(doc.get("traceEvents", []))


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    totals = reduce_file(sys.argv[1])
    print(f"{'span':<18} {'count':>9} {'self_us_mean':>13} {'dur_us_mean':>12}")
    for name in sorted(totals, key=lambda n: -totals[n]["self_us"]):
        entry = totals[name]
        n = entry["count"]
        print(f"{name:<18} {n:>9} {entry['self_us'] / n:>13.1f} "
              f"{entry['dur_us'] / n:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
