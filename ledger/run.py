#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 ledger/run.py [--workload NAME] [--seed N] [--seconds S]
                          [--trace 0|1] [--save FILE]

Run from the repository root. Builds vprof and the measuring program
(ledger/ledger.exe) from source with dune, then measures one workload, or
every workload listed in BENCHMARK.json when --workload is omitted. Each
measurement runs in its own child process, one at a time.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload half
untraced, half traced (writing _ledger/trace/<workload>.trace.json and
.rollup.txt), then the per-layer ladder, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
output was correct. --save FILE appends the result, tagged with workload
and seed, for ledger/diff.exe.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

LEDGER = "_build/default/ledger/ledger.exe"
VPROF = "_build/default/bin/vprof.exe"
GOLDEN = "ledger/golden"
SCRATCH = "_ledger"
SOURCES = ["dune-project", "bin/vprof.ml", "lib", "ledger/dune"]
CHILD_TIMEOUT = 150


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def child(args):
    """Run one ledger.exe subcommand to completion. Returns the JSON object
    it printed last and its peak RSS in MB: the maximum over the child and
    every process it waited for, as wait4 reports it."""
    p = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        p.stdout.close()
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("failed (exit %d): %s" % (p.returncode, " ".join(args)), 1)
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def build():
    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing))
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/vprof.exe", "./ledger/ledger.exe"],
                       stdout=sys.stderr)
    if p.returncode != 0:
        fail("build failed", 1)


def measure(bench, workload, seed, seconds, trace):
    common = ["--vprof", VPROF, "--golden", GOLDEN, "--scratch", os.path.join(SCRATCH, workload)]
    run = [LEDGER, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        run += ["--trace-dir", os.path.join(SCRATCH, "trace")]
    r, rss_mb = child(run + common)
    metrics = dict(r["metrics"])
    if trace:
        ladder, _ = child([LEDGER, "ladder", "--trace-dir", os.path.join(SCRATCH, "trace")] + common)
        metrics.update(ladder["metrics"])
        wanted = bench["per_layer"]
    else:
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        wanted = bench["end_to_end"]
    oracle, _ = child([LEDGER, "oracle"] + common)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("metrics not measured: " + ", ".join(missing), 1)
    if not oracle["correct"]:
        print("run.py: the Oracle check failed", file=sys.stderr)
    return {
        "correct": bool(r["correct"] and oracle["correct"]),
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save")
    a = ap.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        fail("run from the repository root; missing BENCHMARK.json")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    if a.workload is not None and a.workload not in names:
        fail("unknown workload %s (one of %s)" % (a.workload, ", ".join(names)))
    build()

    results = {}
    for w in [a.workload] if a.workload else names:
        results[w] = measure(bench, w, a.seed, seconds, a.trace)
        if a.save:
            with open(a.save, "a") as f:
                f.write(json.dumps(dict(results[w], workload=w, seed=a.seed, trace=a.trace)) + "\n")
    if a.workload:
        result = results[a.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items() for k, v in r["metrics"].items()},
        }

    for name, m in result["metrics"].items():
        print("%-44s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
