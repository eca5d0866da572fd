#!/usr/bin/env python3
"""Run sets of benchmark runs, compare two sets, and self-test the benchmark.

Usage, from the repository root:

    python3 perfbench/suite.py collect NAME [--seeds 1-10] [--workloads a,b] [--trace 0]
    python3 perfbench/suite.py compare BASE CAND
    python3 perfbench/suite.py selftest [--seeds 1-10] [--workloads a,b]

`collect` runs `perfbench/run.py` once per workload and seed, stores each
result record under `perfbench/out/sets/NAME/`, and prints every metric per
workload as the median over the runs with its quartiles and spread
(quartile distance / median, the figure the bound is checked against).

`compare` refuses two sets whose host fingerprints (nproc, CPU model, rustc
version) differ. Otherwise, for every workload and end-to-end metric, it
checks that the candidate's median is not worse than the base's by more
than the metric's bound in BENCHMARK.json, that every spread except
`setup_s`'s stays within its bound, and that the deterministic metrics
repeat exactly on every seed both sets ran.

`selftest` collects two sets of the same code and compares them: the
benchmark's own proof that unchanged code agrees with itself within its
bounds. Each subcommand exits nonzero on failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SETS = os.path.join(HERE, "out", "sets")
# Fingerprint fields that must match for two sets to be comparable.
HOST_KEYS = ("nproc", "cpu_model", "rustc")
# Metrics that are a function of the seed alone; they must repeat exactly.
DETERMINISTIC = ("modeled_cycles_per_sample", "quality_loss")


def load_benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    """Q1, median, Q3 as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def collect(name, seeds, workloads, trace, bench):
    out = os.path.join(SETS, name)
    os.makedirs(out, exist_ok=True)
    for fn in os.listdir(out):
        os.remove(os.path.join(out, fn))
    ok = True
    for wl in workloads:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(trace)]
            r = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
            src = os.path.join(HERE, "out", f"result-{wl}-s{seed}-t{trace}.json")
            if r.returncode != 0 or not os.path.exists(src):
                print(f"{wl} seed {seed}: FAILED (exit {r.returncode})\n{r.stderr[-2000:]}")
                ok = False
                continue
            os.replace(src, os.path.join(out, os.path.basename(src)))
            print(f"{wl} seed {seed}: ok", flush=True)
    report(load_set(name), bench, trace)
    return ok


def load_set(name):
    d = os.path.join(SETS, name)
    records = []
    for fn in sorted(os.listdir(d)):
        if fn.endswith(".json"):
            with open(os.path.join(d, fn)) as f:
                records.append(json.load(f))
    return records


def by_workload(records, trace):
    out = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def metric_values(runs, name):
    vals = []
    for r in runs:
        for m in r["metrics"]:
            if m["name"] == name and m["value"] is not None:
                vals.append(m["value"])
    return vals


def report(records, bench, trace):
    specs = bench["per_layer" if trace else "end_to_end"]
    for wl, runs in sorted(by_workload(records, trace).items()):
        failed = sum(r["checks"]["failed"] for r in runs)
        attempted = sum(r["checks"]["attempted"] for r in runs)
        print(f"\n{wl}: {len(runs)} runs, failed_frac {failed / max(1, attempted)}")
        print(f"  {'metric':<30} {'unit':>7} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for spec in specs:
            vals = metric_values(runs, spec["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            print(f"  {spec['name']:<30} {spec['unit']:>7} {med:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {spread(vals):>8.4f}")


def compare(base_name, cand_name, bench):
    base, cand = load_set(base_name), load_set(cand_name)
    if not base or not cand:
        print("error: empty set")
        return False
    fingerprints = {tuple(r["host"][k] for k in HOST_KEYS) for r in base + cand}
    if len(fingerprints) != 1:
        print("error: refusing to compare results from different hosts:")
        for fp in sorted(fingerprints):
            print("  " + " | ".join(str(x) for x in fp))
        return False
    ok = True
    base_w, cand_w = by_workload(base, 0), by_workload(cand, 0)
    print(f"{'workload':<18} {'metric':<27} {'base':>12} {'cand':>12} {'worse by':>9} "
          f"{'spread':>13} {'bound':>6}  verdict")
    for wl in sorted(set(base_w) | set(cand_w)):
        if wl not in base_w or wl not in cand_w:
            print(f"{wl}: missing from one set")
            ok = False
            continue
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            b, c = metric_values(base_w[wl], name), metric_values(cand_w[wl], name)
            if not b or not c:
                print(f"{wl:<18} {name:<27} missing")
                ok = False
                continue
            mb, mc = quartiles(b)[1], quartiles(c)[1]
            worse = (mc - mb) / abs(mb) if spec["better"] == "lower" else (mb - mc) / abs(mb)
            sb, sc = spread(b), spread(c)
            verdict = []
            if worse > bound:
                verdict.append("REGRESSED")
            if name != "setup_s" and max(sb, sc) > bound:
                verdict.append("TOO NOISY")
            if name in DETERMINISTIC:
                bs = {r["seed"]: v for r, v in zip(base_w[wl], b)}
                cs = {r["seed"]: v for r, v in zip(cand_w[wl], c)}
                if any(bs[s] != cs[s] for s in set(bs) & set(cs)):
                    verdict.append("NOT REPEATED")
            ok = ok and not verdict
            print(f"{wl:<18} {name:<27} {mb:>12.6g} {mc:>12.6g} {worse:>+9.4f} "
                  f"{sb:>6.4f}/{sc:<6.4f} {bound:>6}  {' '.join(verdict) or 'ok'}")
    print("PASS" if ok else "FAIL")
    return ok


def main():
    bench = load_benchmark()
    all_wl = ",".join(w["name"] for w in bench["workloads"])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("name")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default=all_wl)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m = sub.add_parser("compare")
    m.add_argument("base")
    m.add_argument("cand")
    s = sub.add_parser("selftest")
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--workloads", default=all_wl)
    args = p.parse_args()

    if args.cmd == "collect":
        ok = collect(args.name, parse_seeds(args.seeds), args.workloads.split(","),
                     args.trace, bench)
    elif args.cmd == "compare":
        ok = compare(args.base, args.cand, bench)
    else:
        seeds, wls = parse_seeds(args.seeds), args.workloads.split(",")
        ok = collect("selftest-a", seeds, wls, 0, bench)
        ok = collect("selftest-b", seeds, wls, 0, bench) and ok
        ok = compare("selftest-a", "selftest-b", bench) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
