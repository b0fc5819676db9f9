#!/usr/bin/env python3
"""nscs_bench driver: build the benchmark, run workloads, compare results.

Run from the repository root:

  python3 nscs_bench/run.py --workload NAME|all [--seed N] [--seconds S]
                            [--trace 0|1] [--commit C] [--json OUT]
  python3 nscs_bench/run.py compare --base A.json ... --change B.json ...
  python3 nscs_bench/run.py selftest

The first form builds nscs_bench (CMake, into .bench_build/) and runs
each workload in its own process.  Every metric is printed to stderr
by name with its unit; stdout gets one JSON line per workload with
exactly correct, attempted, failed and metrics.  --json writes the
full results (host fingerprint, rtf quartiles) for `compare`.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["cortical-chip", "cortical-board", "dense-clock",
             "update-clock", "classifier-b8"]
# What must match between two results before `compare` compares them.
FINGERPRINT = ["nproc", "simd", "compiler", "cpu"]
# Host-time numbers of an untraced run's detail record: compared but
# not gated, because the host's speed drifts too much (README.md).
UNGATED = [{"name": "rtf", "better": "higher"},
           {"name": "op_p50_ms", "better": "lower"},
           {"name": "op_p99_ms", "better": "lower"}]
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print("nscs_bench: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure and build nscs_bench; returns the binary's path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "nscs_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "nscs_bench")


def run_one(binary, workload, args, extra=()):
    """One workload in its own process; returns its full result."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", args.commit, *extra]
    if args.trace and args.spans:
        cmd += ["--spans", "%s-%s-%d.json" % (args.spans, workload, args.seed)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        die("%s failed (exit %d)" % (workload, p.returncode))
    return json.loads(lines[-1])


def contract_line(result, expected):
    """The result as the one-line JSON the benchmark contract asks for:
    exactly the metrics BENCHMARK.json names for this mode."""
    missing = [m["name"] for m in expected if m["name"] not in result["metrics"]]
    if missing:
        die("%s: missing metrics %s" % (result["workload"], missing))
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in expected}})


def report(result):
    print("%s seed=%d trace=%d correct=%s attempted=%d failed=%d" % (
        result["workload"], result["seed"], result["trace"],
        result["correct"], result["attempted"], result["failed"]),
        file=sys.stderr)
    for name, m in sorted(result["metrics"].items()):
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]),
              file=sys.stderr)
    for name, v in sorted(result["detail"].items()):
        print("  %-36s %14.6g (detail)" % (name, v), file=sys.stderr)


def cmd_run(argv):
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True,
                    help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed window (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--commit", default="unknown")
    ap.add_argument("--json", help="write the full results here")
    ap.add_argument("--spans", metavar="PREFIX",
                    help="with --trace 1, write each run's spans to "
                         "PREFIX-WORKLOAD-SEED.json")
    ap.add_argument("--smoke", action="store_true",
                    help="2%% of the run length, one setup build")
    ap.add_argument("--bin", help="use this nscs_bench, do not build")
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        die("unknown workload " + args.workload, 2)

    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.smoke:
        args.seconds *= 0.02
    expected = bench["per_layer" if args.trace else "end_to_end"]
    binary = args.bin or build()
    results = []
    for name in names:
        r = run_one(binary, name, args, ["--smoke"] if args.smoke else [])
        line = contract_line(r, expected)
        report(r)
        results.append(r)
        print(line, flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    if args.smoke and not all(r["correct"] for r in results):
        die("smoke run failed verification")


# --- compare --------------------------------------------------------------

def load_results(paths):
    out = []
    for p in paths:
        with open(p) as f:
            doc = json.load(f)
        out.extend(doc if isinstance(doc, list) else [doc])
    return out


def value(result, name):
    if name in result["metrics"]:
        return result["metrics"][name]["value"]
    return result["detail"].get(name)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound):
    """The choosing-metrics rule: a gain needs >= 9/10 pair wins over
    at least ten pairs and a median shift beyond the parent's IQR; a
    regression is a median worse than the parent's by more than the
    bound; a spread wider than the bound leaves the pair unresolved
    unless every change run beats every base run."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    gain = sign * (cm - bm)
    spread = max(b3 - b1, c3 - c1) / abs(bm) if bm else math.inf
    if (len(pairs) >= 10 and wins * 10 >= 9 * len(pairs)
            and gain > b3 - b1):
        v = "gain"
    elif spread > bound:
        all_better = min(sign * c for c in change) > max(sign * b for b in base)
        v = "not-worse" if all_better else "unresolved"
    elif -gain > bound * abs(bm):
        v = "regression"
    else:
        v = "no-change"
    return v, (b1, bm, b3), (c1, cm, c3), wins, len(pairs), spread


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("--base", nargs="+", required=True,
                    help="result files (--json) of the parent commit")
    ap.add_argument("--change", nargs="+", required=True,
                    help="result files of the change, in the same order")
    args = ap.parse_args(argv)
    base, change = load_results(args.base), load_results(args.change)
    hosts = {json.dumps({k: r["host"].get(k) for k in FINGERPRINT},
                        sort_keys=True) for r in base + change}
    if len(hosts) != 1:
        die("host fingerprints differ; refusing to compare:\n  " +
            "\n  ".join(sorted(hosts)), 2)

    bench = spec()
    # Gated metrics first, then the host-time numbers of the detail
    # record and the per-layer metrics, which have no bound.
    metrics = bench["end_to_end"] + [dict(m, bound=None) for m in
                                     UNGATED + bench["per_layer"]]
    regressions = 0
    print("%-15s %-30s %28s %28s %6s %6s %8s  %s" % (
        "workload", "metric", "base q1/med/q3", "change q1/med/q3",
        "wins", "bound", "spread", "verdict"))
    for w in WORKLOADS:
        bw = [r for r in base if r["workload"] == w]
        cw = [r for r in change if r["workload"] == w]
        if not bw or not cw:
            continue
        more_failed = (sum(r["failed"] for r in cw) / len(cw) >
                       sum(r["failed"] for r in bw) / len(bw))
        for m in metrics:
            bv = [v for v in (value(r, m["name"]) for r in bw) if v is not None]
            cv = [v for v in (value(r, m["name"]) for r in cw) if v is not None]
            if not bv or not cv:
                continue
            if m["bound"] is None:
                v, bq, cq, wins, n, spread = verdict(bv, cv, m["better"],
                                                    math.inf)
                v = "gain" if v == "gain" else "-"
            else:
                v, bq, cq, wins, n, spread = verdict(bv, cv, m["better"],
                                                    m["bound"])
                if v == "gain" and more_failed:
                    v = "void (more failures)"
                regressions += v == "regression"
            print("%-15s %-30s %28s %28s %6s %6s %8.3f  %s" % (
                w, m["name"], "%.4g/%.4g/%.4g" % bq, "%.4g/%.4g/%.4g" % cq,
                "%d/%d" % (wins, n),
                "-" if m["bound"] is None else "%.2f" % m["bound"],
                spread, v))
    sys.exit(1 if regressions else 0)


# --- selftest -------------------------------------------------------------

def cmd_selftest(argv):
    """Verification must see a dropped input spike of the device run."""
    ap = argparse.ArgumentParser(prog="run.py selftest")
    ap.add_argument("--bin", help="use this nscs_bench, do not build")
    args = ap.parse_args(argv)
    binary = args.bin or build()
    p = subprocess.run([binary, "--workload", "cortical-chip", "--smoke",
                        "--seconds", "0.1", "--perturb"],
                       stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    r = json.loads(p.stdout.strip().splitlines()[-1])
    frac = r["failed"] / r["attempted"]
    print("perturbed run: attempted=%d failed=%d verify_fail_frac=%.4f" % (
        r["attempted"], r["failed"], frac))
    if p.returncode or r["correct"] or frac <= 0:
        die("perturbation went unnoticed")


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        cmd_compare(argv[1:])
    elif argv and argv[0] == "selftest":
        cmd_selftest(argv[1:])
    else:
        cmd_run(argv)


if __name__ == "__main__":
    main()
