#!/usr/bin/env python3
"""Compare two sets of saved benchmark results.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of run.py runs, one file per run.
For every workload and metric the report gives each side's sample count,
median and quartiles, and the change of the medians as a share of the base
median.  It also reports, for each workload and seed run on both sides,
whether the CLI's standard output was byte-identical (by its SHA-256).
Result sets measured on different kernel backends are not comparable: the
script refuses them with exit code 2.
"""
from __future__ import annotations

import json
import os
import statistics
import sys


def load(directory: str) -> list[tuple[dict, dict]]:
    runs = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), None)
        if info is None or not lines:
            continue
        runs.append((info, json.loads(lines[-1])))
    return runs


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)} median={values[0]:.6g}" if values else "n=0"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} median={statistics.median(values):.6g} q1={q1:.6g} q3={q3:.6g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {side: {info["env"]["backend"] for info, _ in runs}
                for side, runs in (("base", base), ("new", new))}
    if len(backends["base"] | backends["new"]) != 1:
        print(f"refusing to compare: kernel backends differ {backends}", file=sys.stderr)
        return 2
    grouped: dict = {}
    digests: dict = {}
    for side, runs in (("base", base), ("new", new)):
        for info, result in runs:
            key = (info["workload"], info["trace"])
            for metric, entry in result["metrics"].items():
                grouped.setdefault(key, {}).setdefault(metric, {"base": [], "new": []})
                grouped[key][metric][side].append(entry["value"])
            if not result["correct"]:
                print(f"{side}: {info['workload']} seed {info['seed']} reported incorrect output")
            digests.setdefault((info["workload"], info["seed"]), {}).setdefault(
                side, set()).add(info["stdout_sha256"])
    for (workload, trace), metrics in sorted(grouped.items()):
        print(f"{workload} (trace {trace})")
        for metric, sides in metrics.items():
            b, n = sides["base"], sides["new"]
            change = ""
            if b and n and statistics.median(b):
                change = f"  change {statistics.median(n) / statistics.median(b) - 1:+.2%}"
            print(f"  {metric}: base {describe(b)} | new {describe(n)}{change}")
    for (workload, seed), sides in sorted(digests.items()):
        if len(sides) == 2:
            same = sides["base"] == sides["new"] and len(sides["base"]) == 1
            print(f"stdout {workload} seed {seed}: {'identical' if same else 'DIFFERS'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
