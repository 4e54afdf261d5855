#!/usr/bin/env python3
"""Compares benchmark runs of two commits.

Collect runs of each commit (a checkout holding perfbench/ and src/), in
alternating order so neither side always runs first:

    python3 perfbench/compare.py collect --base ../parent --change . \
        --seeds 1-10 --out-base base.jsonl --out-change change.jsonl

Then print, for every workload x metric, each side's median and quartiles,
the fraction of seed-matched pairs the change wins, and a verdict:

    python3 perfbench/compare.py report base.jsonl change.jsonl

Verdicts:
  improved    over at least 10 seed-matched pairs, the change wins at least
              9/10 of them (ties count for neither) and the medians differ
              by more than the base's quartile distance
  worse       the same rule the other way, or an end-to-end median worse
              by more than the metric's bound while the base's spread is
              within the bound
  no worse    an end-to-end median worse by at most its bound, with the
              base's spread within the bound (or every change run better
              than every base run)
  identical   every run of both sides reads the same value (simulated
              counts of a deterministic model)
  unresolved  anything else: the spread is too wide to decide

Each JSON line holds workload, seed, trace, fingerprint and the result.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10  # fewer seed-matched pairs cannot decide by win fraction


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout, workload, seed, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().split("\n")
    fp = None
    for line in lines:
        m = re.search(r"fingerprint ([0-9a-f]{16})", line)
        if m:
            fp = m.group(1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"workload": workload, "seed": seed, "trace": trace,
            "fingerprint": fp, "exit": p.returncode, **result}


def collect(args):
    spec = load_spec(os.path.join(args.change, "BENCHMARK.json"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sides = [(args.base, args.out_base), (args.change, args.out_change)]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in workloads:
            for trace in (0, 1):
                order = sides if i % 2 == 0 else sides[::-1]
                for checkout, out in order:
                    rec = run_once(checkout, workload, seed, seconds, trace)
                    with open(out, "a") as f:
                        f.write(json.dumps(rec) + "\n")
                    print(f"{checkout}: {workload} seed {seed} trace {trace}"
                          f" correct={rec['correct']}", file=sys.stderr)


def load_spec(path):
    with open(path) as f:
        return json.load(f)


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """base/change: {seed: value}. Returns (win fraction, verdict)."""
    sign = 1 if better == "higher" else -1
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - base[s]) > 0)
    losses = sum(1 for s in seeds if sign * (change[s] - base[s]) < 0)
    frac = wins / len(seeds) if seeds else 0.0
    b, c = list(base.values()), list(change.values())
    if len(set(b + c)) == 1:
        return frac, "identical"
    bq1, bmed, bq3 = quartiles(b)
    cmed = statistics.median(c)
    gain = sign * (cmed - bmed)
    enough = len(seeds) >= MIN_PAIRS
    if enough and wins >= 0.9 * len(seeds) and gain > bq3 - bq1:
        return frac, "improved"
    if enough and losses >= 0.9 * len(seeds) and -gain > bq3 - bq1:
        return frac, "worse"
    if bound is None:
        return frac, "unresolved"
    scale = abs(bmed) if bmed else 1.0
    spread_ok = (bq3 - bq1) / scale <= bound
    all_better = min(sign * x for x in c) > max(sign * x for x in b)
    if -gain > bound * scale and spread_ok:
        return frac, "worse"
    if (-gain <= bound * scale and spread_ok) or all_better:
        return frac, "no worse"
    return frac, "unresolved"


def report(args):
    spec = load_spec(args.benchmark)
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_runs(args.base), load_runs(args.change)

    def table(runs):
        out = {}
        for r in runs:
            for name, m in r.get("metrics", {}).items():
                out.setdefault((r["workload"], name), {})[r["seed"]] = m["value"]
        return out

    tb, tc = table(base), table(change)
    print(f"{'workload':10} {'metric':30} base median [q1, q3] | "
          f"change median [q1, q3] | wins | verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, m in defs.items():
            key = (workload, name)
            if key not in tb or key not in tc:
                continue
            frac, v = verdict(tb[key], tc[key], m["better"], m.get("bound"))
            bq1, bmed, bq3 = quartiles(list(tb[key].values()))
            cq1, cmed, cq3 = quartiles(list(tc[key].values()))
            print(f"{workload:10} {name:30} {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]"
                  f" | {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] | {frac:.2f} | {v}")
        fps = {side: {r["seed"]: r.get("fingerprint") for r in runs
                      if r["workload"] == workload}
               for side, runs in (("base", base), ("change", change))}
        if not fps["base"]:
            continue
        same = [s for s in fps["base"] if fps["base"][s] == fps["change"].get(s)]
        print(f"{workload:10} fingerprints identical on {len(same)}/"
              f"{len(fps['base'])} seeds")
        bad = [r for r in base + change
               if r["workload"] == workload and not r.get("correct")]
        if bad:
            print(f"{workload:10} {len(bad)} runs failed their checks")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run both checkouts, alternating")
    c.add_argument("--base", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int)
    c.add_argument("--workloads", nargs="*")
    c.add_argument("--out-base", required=True)
    c.add_argument("--out-change", required=True)
    r = sub.add_parser("report", help="print medians, wins and verdicts")
    r.add_argument("base")
    r.add_argument("change")
    r.add_argument("--benchmark",
                   default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
