#!/usr/bin/env python3
"""The serving benchmark: builds serve_bench from source and runs one
workload (README.md in this directory describes the workloads and metrics).

Usage (from the repository root):
    python3 servebench/run.py --workload hot_repeat --seed 1 --seconds 45 --trace 0
    python3 servebench/run.py --workload all --seed 1 --seconds 45 --trace 1

--trace 0 runs the untraced measurement and reports the end-to-end metrics;
--trace 1 additionally runs the workload with the server's tracer on and
reports the per-layer metrics. Every metric measured is printed by name with
its unit and sample count; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit status is
non-zero when the build fails, serve_bench fails, or a served outcome does not
match its bitwise replay.

The build goes to $CARGO_TARGET_DIR/servebench (default .bench_build/ at the
repository root); reports and trace dumps go next to it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import trace_reduce  # noqa: E402

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170

# Workloads serve_bench runs that BENCHMARK.json does not gate (README.md,
# "ingest_churn"); `--workload all` runs them too.
UNGATED = ("ingest_churn",)

# Trace span counts that must equal a server counter of the traced run.
RECONCILE = (("arena_build", "arena_builds"),
             ("session_build", "session_builds"),
             ("compact", "compactions"))


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "servebench")


def build(out_dir):
    """Configure (once) and build serve_bench; return the binary's path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "serve_bench",
                  "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT, text=True,
                                    timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(step)} failed: {e}")
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            fail(f"build step {' '.join(step)} exited {result.returncode}")
    binary = os.path.join(out_dir, "serve_bench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def run_serve_bench(binary, out_dir, workload, seed, seconds, traced):
    """Run one workload; return (report, trace totals or None)."""
    stem = os.path.join(out_dir, f"run-{workload}-{seed}-{int(traced)}")
    report_path, trace_path = stem + ".report.json", stem + ".trace.json"
    for path in (report_path, trace_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(traced)}",
           f"--report={report_path}", f"--trace_out={trace_path}"]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: serve_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stderr)
    if result.returncode != 0:
        fail(f"{workload}: serve_bench exited {result.returncode}")
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    totals = None
    if traced:
        totals = trace_reduce.reduce_file(trace_path)
        os.remove(trace_path)  # tens of MB; the reduction is what is kept
    return report, totals


def trace_metrics(report, totals):
    """trace.<span>.{count,self_us_mean} plus trace.overhead."""
    metrics = []
    for span in trace_reduce.SPANS:
        entry = totals.get(span, {"count": 0, "self_us": 0.0})
        n = entry["count"]
        metrics.append({"name": f"trace.{span}.count", "value": n,
                        "unit": "count", "samples": 1})
        metrics.append({"name": f"trace.{span}.self_us_mean",
                        "value": entry["self_us"] / n if n else 0.0,
                        "unit": "us", "samples": n})
    info = report["trace"]
    metrics.append({"name": "trace.overhead",
                    "value": info["untraced_qps"] / info["traced_qps"],
                    "unit": "ratio", "samples": 2})
    for span, counter in RECONCILE:
        spans = totals.get(span, {"count": 0})["count"]
        if spans != info[counter]:
            print(f"  note: trace span {span} count {spans} != server "
                  f"{counter} {info[counter]}")
    if info["dropped"]:
        print(f"  note: {info['dropped']} trace events dropped by ring wrap")
    return metrics


def run_workload(binary, out_dir, spec, workload, seed, seconds, traced):
    print(f"== {workload}  seed={seed}  seconds={seconds}  trace={int(traced)}",
          flush=True)
    report, totals = run_serve_bench(binary, out_dir, workload, seed, seconds, traced)
    measured = {m["name"]: m for m in report["metrics"]}
    print("  stamp: " + json.dumps(report["stamp"], sort_keys=True))
    if traced:
        for m in trace_metrics(report, totals):
            measured[m["name"]] = m
    for m in measured.values():
        print(f"  {m['name']:<36} {m['value']:>16.6g} {m['unit']:<6} "
              f"n={m['samples']}")
    print(f"  check: compared={report['compared']} "
          f"mismatches={report['mismatches']} "
          f"degraded_excluded={report['degraded_excluded']}")
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] not in measured:
            fail(f"{workload}: metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": measured[entry["name"]]["value"],
                                  "unit": entry["unit"]}
    correct = report["mismatches"] == 0 and report["compared"] > 0
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + list(UNGATED)
    parser = argparse.ArgumentParser(description="serving benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    out_dir = build_dir()
    binary = build(out_dir)
    workloads = names if args.workload == "all" else [args.workload]
    results = {w: run_workload(binary, out_dir, spec, w, args.seed,
                               args.seconds, bool(args.trace))
               for w in workloads}
    if len(results) == 1:
        line = results[workloads[0]]
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line, sort_keys=False))
    sys.stdout.flush()
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
