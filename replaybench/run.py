#!/usr/bin/env python3
"""Build and run the wire-to-alert replay benchmark.

Timed run (the form `BENCHMARK.json` names), from the repository root:

    python3 replaybench/run.py --workload isp_replay --seed 1 --seconds 10 --trace 0

prints information lines starting with '#' and, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. `--trace 1`
runs the traced binary, which reports the per-layer metrics instead.

Other commands:

    python3 replaybench/run.py spread --workload wire_dense -k 10 [--seconds 10] [--trace]
    python3 replaybench/run.py determinism --workload fleet_sparse [--seed 1] [--minutes 240]
    python3 replaybench/run.py short

`spread` reruns one workload with seeds 1..k and prints, for every metric,
the median, the quartiles and the quartile distance as a share of the
median and of the bound in BENCHMARK.json; with --trace it also runs the
traced binary and prints the tracing overhead. `determinism` replays a
prefix at one and two fleet threads and compares digests. `short` runs
every workload's checks, and each check against a deliberate corruption,
at reduced size.

The build honours CARGO_TARGET_DIR (default: replaybench/target).
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "Cargo.toml"


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", str(MANIFEST), "--bins"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("replaybench: build failed")


def binary(traced):
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    return str(target / "release" / ("replaybench_traced" if traced else "replaybench"))


def arg(args, flag, default=None):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
        sys.exit(f"replaybench: {flag} needs a value")
    return default


def run_once(workload, seed, seconds, traced):
    """One run; returns (result dict, info lines, wall seconds)."""
    cmd = [binary(traced), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    t0 = time.monotonic()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"replaybench: {' '.join(cmd)} exited {p.returncode}\n{p.stdout}")
    return json.loads(lines[-1]), [l for l in lines[:-1] if l.startswith("#")], wall


def spread(args):
    workload = arg(args, "--workload")
    if workload is None:
        sys.exit("replaybench: spread needs --workload")
    k = int(arg(args, "-k", "10"))
    seconds = arg(args, "--seconds", "10")
    traced = "--trace" in args
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, walls, shares, traced_runs = [], [], set(), []
    for seed in range(1, k + 1):
        result, info, wall = run_once(workload, seed, seconds, False)
        runs.append(result)
        walls.append(wall)
        shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
        if not result["correct"]:
            print(f"seed {seed}: correct=false", *info, sep="\n")
        if traced:
            traced_runs.append(run_once(workload, seed, seconds, True)[0])
    print(f"{workload}: {k} runs, {seconds} s each, run wall median {statistics.median(walls):.1f} s "
          f"(max {max(walls):.1f} s), all correct: {all(r['correct'] for r in runs)}, "
          f"failed shares: {sorted(shares, key=str)}")
    print(f"{'metric':<42}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}{'/bound':>8}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rel = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        of_bound = f"{rel / bound:8.2f}" if bound else f"{'-':>8}"
        unit = runs[0]["metrics"][name]["unit"]
        print(f"{name + ' (' + unit + ')':<42}{med:14.6g}{q1:14.6g}{q3:14.6g}{rel:9.4f}{of_bound}")
    if traced:
        for name in traced_runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in traced_runs]
            print(f"{name:<42}{statistics.median(values):14.6g}")
        plain = statistics.median(r["metrics"]["customer_minutes_per_s"]["value"] for r in runs)
        with_trace = statistics.median(r["metrics"]["trace.customer_minutes_per_s"]["value"] for r in traced_runs)
        print(f"tracing overhead: traced/untraced customer_minutes_per_s = {with_trace / plain:.4f}")


def main():
    args = sys.argv[1:]
    command = args[0] if args and not args[0].startswith("-") else "run"
    build()
    if command == "spread":
        spread(args[1:])
        return 0
    if command == "short":
        return subprocess.run([binary(False), "--short"]).returncode
    if command == "determinism":
        rest = args[1:] + ([] if "--seed" in args else ["--seed", "1"])
        return subprocess.run([binary(False), "--determinism"] + rest).returncode
    if command != "run":
        sys.exit(f"replaybench: unknown command {command}")
    traced = arg(args, "--trace", "0") != "0"
    return subprocess.run([binary(traced)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
