#!/usr/bin/env python3
"""Build and run the CoopMC Gibbs-sweep benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload mrf-seg2-seq --seed 1 --seconds 10 --trace 0

Builds `perfbench` (a Cargo package of its own that depends on the library
crates by path) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs it, and prints its metric table followed by one JSON
line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

`--trace 0` reports the `end_to_end` metrics of BENCHMARK.json, `--trace 1`
the `per_layer` ones. The full record -- every metric with its quartiles,
the output checks, and the host fingerprint (nproc, CPU model, rustc
version, git commit, source hash) -- is written to
`perfbench/out/result-<workload>-s<seed>-t<trace>.json` for
`perfbench/suite.py`. Exits nonzero when the build fails, an output check
fails, or a metric is missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(REPO, d)


def build():
    """Build the benchmark binary; returns its path or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=REPO, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"error: build failed: {e}")
        return None
    if r.returncode != 0:
        log(f"error: build failed with exit code {r.returncode}")
        return None
    exe = os.path.join(target_dir(), "release", "coopmc-perfbench")
    return exe if os.path.isfile(exe) else None


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_hash():
    """SHA-256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    roots = [os.path.join(REPO, "crates"), HERE]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "target"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, REPO).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def host_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    commit = "none"
    if os.path.exists(os.path.join(REPO, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": commit,
        "source_hash": source_hash(),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log(f"error: unknown workload {args.workload!r}; choose from {names}")
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    exe = build()
    if exe is None:
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    started = time.time()
    try:
        r = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(r.stdout)
        log(f"error: benchmark exited {r.returncode} without a result line")
        return 1
    for line in lines[:-1]:
        print(line)

    problems = list(record["checks"]["failures"])
    by_name = {m["name"]: m for m in record["metrics"]}
    metrics = {}
    for spec in wanted:
        m = by_name.get(spec["name"])
        if m is None or not isinstance(m["value"], (int, float)):
            problems.append(f"metric {spec['name']} missing or not finite")
            continue
        if m["unit"] != spec["unit"]:
            problems.append(f"metric {spec['name']} unit {m['unit']} != {spec['unit']}")
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    if r.returncode != 0 and not problems:
        problems.append(f"benchmark exited {r.returncode}")
    attempted = max(1, record["checks"]["attempted"])
    failed = record["checks"]["failed"]
    correct = not problems and failed == 0

    record.update(seconds=args.seconds, wall_s=time.time() - started,
                  host=host_facts(), correct=correct, problems=problems)
    path = os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    for msg in problems:
        log(f"error: {msg}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
