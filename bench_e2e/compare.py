#!/usr/bin/env python3
"""Collect and compare sets of end-to-end benchmark runs (stdlib only).

Record runs (one JSON line per run: workload, seed, trace, result):

    python3 bench_e2e/compare.py collect --out A.jsonl --seeds 1-5
    python3 bench_e2e/compare.py collect --out A.jsonl --seeds 6-10 \\
        --workloads serve,figs_warm --trace 1

Summarise one set, or compare two (A = parent, B = change):

    python3 bench_e2e/compare.py report A.jsonl
    python3 bench_e2e/compare.py report A.jsonl B.jsonl [--paired]

For every (workload, metric) the report prints each set's n, median and
quartiles (statistics.quantiles, n=4) and the spread (IQR / median). A
set's spread above the metric's BENCHMARK.json bound is flagged UNSTEADY.
With two sets, a median worse than A's by more than the bound is flagged
REGRESSED, and with --paired (runs matched by workload, seed and order)
a gain is claimed only by the rule of the choosing-metrics guide: B wins
at least 9 of every 10 pairs (ties count for neither) and the medians
differ by more than A's interquartile range. Exit code 1 when anything
is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        cat = json.load(f)
    metrics = {}
    for section in ("end_to_end", "per_layer"):
        for m in cat[section]:
            metrics[m["name"]] = dict(m)
    return cat, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(a_med, b_med, better):
    """Relative amount by which B is worse than A (negative = better)."""
    if a_med == 0:
        return 0.0 if b_med == a_med else float("inf")
    delta = (b_med - a_med) / abs(a_med)
    return delta if better == "lower" else -delta


def gain(a_vals, b_vals, better):
    """The guide's gain rule over matched pairs: (claimed, wins, pairs)."""
    pairs = list(zip(a_vals, b_vals))
    wins = sum(1 for a, b in pairs
               if (b < a if better == "lower" else b > a))
    q1, a_med, q3 = quartiles(a_vals)
    b_med = statistics.median(b_vals)
    apart = abs(b_med - a_med) > (q3 - q1)
    improved = b_med < a_med if better == "lower" else b_med > a_med
    return bool(pairs) and wins * 10 >= 9 * len(pairs) and apart and \
        improved, wins, len(pairs)


def load_runs(path):
    """{(workload, trace): [(seed, result), ...]} in file order."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                key = (rec["workload"], rec.get("trace", 0))
                runs.setdefault(key, []).append((rec["seed"], rec["result"]))
    return runs


def cmd_collect(args):
    cat, _ = load_catalogue()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in cat["workloads"]]
    seconds = args.seconds or cat["run_seconds"]
    failures = 0
    seeds = parse_seeds(args.seeds)
    order = [(w, seed) for w in workloads for seed in seeds] \
        if args.seeds_inner else \
        [(w, seed) for seed in seeds for w in workloads]
    with open(args.out, "a") as out:
        for w, seed in order:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  cwd=ROOT)
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: run failed", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            out.write(json.dumps({"workload": w, "seed": seed,
                                  "trace": args.trace,
                                  "result": result}) + "\n")
            out.flush()
            print(f"{w} seed {seed}: correct={result['correct']}",
                  file=sys.stderr)
    return 1 if failures else 0


def cmd_report(args):
    _, metrics = load_catalogue()
    a_runs = load_runs(args.a)
    b_runs = load_runs(args.b) if args.b else {}
    flagged = False
    header = f"{'workload':13} {'metric':28} {'n':>3} {'median':>11} " \
             f"{'q1':>11} {'q3':>11} {'spread':>7}"
    if args.b:
        header += f"  {'B n':>3} {'B median':>11} {'B q1':>11} " \
                  f"{'B q3':>11} {'worse':>7}"
    print(header)
    for (workload, trace), a_list in sorted(a_runs.items()):
        b_list = b_runs.get((workload, trace), [])
        names = list(a_list[0][1]["metrics"])
        for name in names:
            spec = metrics.get(name, {})
            bound = spec.get("bound")
            better = spec.get("better", "lower")
            a_vals = [r["metrics"][name]["value"] for _, r in a_list]
            q1, med, q3 = quartiles(a_vals)
            sp = spread(a_vals)
            line = f"{workload:13} {name:28} {len(a_vals):3d} {med:11.5g} " \
                   f"{q1:11.5g} {q3:11.5g} {sp:7.3f}"
            notes = []
            if bound is not None and name != "setup_s" and sp > bound:
                notes.append("UNSTEADY")
            if b_list:
                b_vals = [r["metrics"][name]["value"] for _, r in b_list]
                bq1, bmed, bq3 = quartiles(b_vals)
                w = worse_by(med, bmed, better)
                line += f"  {len(b_vals):3d} {bmed:11.5g} {bq1:11.5g} " \
                        f"{bq3:11.5g} {w:+7.3f}"
                if bound is not None and w > bound:
                    notes.append("REGRESSED")
                if args.paired:
                    claimed, wins, n = gain(a_vals, b_vals, better)
                    notes.append(f"wins {wins}/{n}" +
                                 (" GAIN" if claimed else ""))
            if any(n in ("UNSTEADY", "REGRESSED") for n in notes):
                flagged = True
            print(line + ("  " + " ".join(notes) if notes else ""))
        failed = sum(r["failed"] for _, r in a_list + b_list)
        incorrect = sum(not r["correct"] for _, r in a_list + b_list)
        if failed or incorrect:
            flagged = True
            print(f"{workload:13} {'(runs)':28} FAILED: {incorrect} "
                  f"incorrect runs, {failed} failed operations")
    return 1 if flagged else 0


def self_test():
    checks = []

    def expect(ok, what):
        checks.append((ok, what))

    vals = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5]
    expect(quartiles(vals) == tuple(statistics.quantiles(vals, n=4)),
           "quartiles match statistics.quantiles")
    expect(quartiles([5.0]) == (5.0, 5.0, 5.0), "single-value quartiles")
    expect(abs(spread([9.0, 10.0, 11.0, 10.0]) -
               (10.75 - 9.25) / 10.0) < 1e-12, "spread is IQR / median")
    expect(abs(worse_by(100.0, 110.0, "lower") - 0.10) < 1e-12,
           "10% slower is 0.10 worse")
    expect(abs(worse_by(100.0, 110.0, "higher") + 0.10) < 1e-12,
           "10% more throughput is better")
    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9,
              100.0]
    faster = [v - 5.0 for v in parent]
    claimed, wins, n = gain(parent, faster, "lower")
    expect(claimed and wins == 10 and n == 10, "a clear gain is claimed")
    mixed = list(parent)
    mixed[0] -= 0.1
    claimed, wins, _ = gain(parent, mixed, "lower")
    expect(not claimed and wins == 1, "one win in ten is no gain")
    tiny = [v - 0.01 for v in parent]
    claimed, wins, _ = gain(parent, tiny, "lower")
    expect(wins == 10 and not claimed,
           "medians closer than the parent's IQR are no gain")
    expect(parse_seeds("1-3,7") == [1, 2, 3, 7], "seed ranges")
    bad = [what for ok, what in checks if not ok]
    for what in bad:
        print(f"compare.py self-test FAILED: {what}", file=sys.stderr)
    print(f"compare.py self-test: {len(checks)} checks, {len(bad)} failed")
    return 1 if bad else 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    ap = argparse.ArgumentParser(
        description="Collect and compare end-to-end benchmark runs.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    col = sub.add_parser("collect", help="run the benchmark, append JSONL")
    col.add_argument("--out", required=True)
    col.add_argument("--seeds", default="1-5")
    col.add_argument("--workloads", default="")
    col.add_argument("--seconds", type=float, default=0)
    col.add_argument("--trace", type=int, choices=(0, 1), default=0)
    col.add_argument("--seeds-inner", action="store_true",
                     help="run all seeds of a workload back to back")
    rep = sub.add_parser("report", help="summarise or compare JSONL sets")
    rep.add_argument("a")
    rep.add_argument("b", nargs="?")
    rep.add_argument("--paired", action="store_true")
    args = ap.parse_args()
    return cmd_collect(args) if args.cmd == "collect" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
