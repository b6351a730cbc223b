#!/usr/bin/env python3
"""End-to-end benchmark of the aperylike CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ``src/``.
Each workload is one CLI command, run again and again in fresh
single-threaded processes, one at a time (a closed loop with one client), as
long as a typical run still ends within S seconds.  The seed picks the prime
window and, for mine-bfile, the indices the b-file is checked at.  Every run's
output is checked against the oracles in checks.py.

With ``--trace 0`` the result reports the end-to-end metrics: the median wall
time of one CLI run, the median time a fresh interpreter takes to import
``aperylike.cli``, and the median peak resident memory of one CLI run.  With
``--trace 1`` untraced and traced runs (trace_cli.py) alternate, and the
result reports the per-layer metrics of the traced runs plus the tracing
overhead.  The last line of standard output is the result as one JSON object;
the line before it, starting with ``info``, records the environment, the
inputs and every sample.  Inputs, caches and bytecode go to a temporary
directory under ``.perfbench_work/``, which is removed at exit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Every benchmark run must end within this many seconds.
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 21
# The seed shifts each prime window by up to SHIFTS - 1 primes.
SHIFTS = 4
GALOIS_HI = 350           # galois-apery: primes from 5..13 up to 349
VERIFY_HI = 200           # verify-2f1: primes from 5..13 up to 199
MINE_BELOW = 2000         # mine-bfile: MINE_PRIMES consecutive primes below 2000
MINE_PRIMES = 3
BFILE_TERMS = 2100
BFILE_CHECKS_SMALL = 36   # b-file indices checked against term_exact below 400 ...
BFILE_CHECKS_LARGE = 4    # ... and above it, where term_exact is slow

WORKLOADS = ("galois-apery", "mine-bfile", "verify-2f1")


# -- inputs -----------------------------------------------------------------------


def apery_bfile(path: str, terms: int) -> list[int]:
    """Write Apery numbers a(0..terms-1) as an OEIS b-file, from the recurrence
    (n+1)^3 a(n+1) = (34n^3 + 51n^2 + 27n + 5) a(n) - n^3 a(n-1)."""
    values = [1, 5]
    for n in range(1, terms - 1):
        num = (34 * n ** 3 + 51 * n ** 2 + 27 * n + 5) * values[n] - n ** 3 * values[n - 1]
        q, r = divmod(num, (n + 1) ** 3)
        if r:
            raise ArithmeticError(f"Apery recurrence not integral at n={n + 1}")
        values.append(q)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# Apery numbers A005259 from their three-term recurrence\n")
        fh.writelines(f"{n} {v}\n" for n, v in enumerate(values[:terms]))
    return values[:terms]


TERM_EXACT_CHECK = """
import sys
from aperylike.sequences import CATALOG, term_exact
path, indices = sys.argv[1], [int(i) for i in sys.argv[2:]]
values = {}
with open(path) as fh:
    for line in fh:
        if not line.startswith("#"):
            n, v = line.split()
            values[int(n)] = int(v)
bad = [n for n in indices if term_exact(CATALOG["apery"], n) != values[n]]
print(" ".join(map(str, bad)))
sys.exit(1 if bad else 0)
"""


def make_inputs(workload: str, seed: int, tmp: str) -> dict:
    """CLI arguments and oracle context for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("galois-apery", "verify-2f1"):
        # Shift only the low end: the top primes carry nearly all the work,
        # so the seed changes the inputs without changing the cost.
        hi = GALOIS_HI if workload == "galois-apery" else VERIFY_HI
        lo = checks.primes_between(5, hi)[rng.randrange(SHIFTS)]
        primes = checks.primes_between(lo, hi)
        if workload == "galois-apery":
            args = ["galois", "--seq", "apery", "--primes", f"{lo}..{hi}", "--check-theorem"]
        else:
            args = ["verify", "hypergeometric", "--primes", f"{lo}..{hi}"]
        return {"args": args, "context": {"primes": primes}}
    # Both (-6/p) classes must occur, or there is one cluster and nothing to
    # infer; the windows that meet both classes near 2000 all contain 1987.
    below = checks.primes_between(MINE_BELOW - 200, MINE_BELOW)[::-1]
    windows = [sorted(below[k:k + MINE_PRIMES]) for k in range(SHIFTS)]
    primes = rng.choice([w for w in windows if all(checks.square_split(w))])
    bfile = os.path.join(tmp, "apery.b")
    values = apery_bfile(bfile, BFILE_TERMS)
    indices = (rng.sample(range(400), BFILE_CHECKS_SMALL)
               + rng.sample(range(400, BFILE_TERMS), BFILE_CHECKS_LARGE))
    cache = os.path.join(tmp, "cache.jsonl")
    args = ["mine", "--seq", "@" + bfile, "--primes", f"{primes[0]}..{primes[-1]}",
            "--threads", "1", "--cache", cache, "--format", "json"]
    context = {"primes": primes, "lo": primes[0], "hi": primes[-1],
               "seq_key": "external:apery", "values": values}
    return {"args": args, "context": context, "cache": cache,
            "bfile_check": [sys.executable, "-c", TERM_EXACT_CHECK, bfile]
                           + [str(i) for i in sorted(indices)]}


# -- processes --------------------------------------------------------------------


def run_child(cmd: list[str], env: dict, tmp: str, timeout: float) -> dict:
    """Run one process to completion; wall time, exit code, peak RSS, stdout."""
    out_path = os.path.join(tmp, "stdout")
    err_path = os.path.join(tmp, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return {"wall": wall, "code": proc.returncode, "rss_kb": usage.ru_maxrss,
            "stdout": stdout, "stderr": stderr}


def environment(env: dict, tmp: str) -> dict:
    probe = run_child([sys.executable, "-c",
                       "import sys, aperylike; "
                       "print(getattr(aperylike, 'KERNEL_BACKEND', 'unknown'))"],
                      env, tmp, 60)
    if probe["code"] != 0:
        raise RuntimeError("cannot import aperylike:\n" + probe["stderr"].decode(errors="replace"))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"backend": probe["stdout"].decode().strip(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                return next(line.split()[0] for line in fh if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


# -- metrics ----------------------------------------------------------------------


EMPTY_SUMMARY = {"functions": {}, "truncation_s": 0.0, "coeffs": 0, "recomputed": 0,
                 "warnings": 0}


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"


def layer_values(summary: dict, cache_bytes: int) -> dict:
    """Per-layer values of one traced run, from trace_cli.py's summary."""
    fns = summary["functions"]

    def get(name, key):
        return fns.get(name, {}).get(key, 0)

    cofactor_own = (get("fp_poly.square_cofactor", "inclusive_s")
                    - fns.get("fp_poly.square_cofactor", {}).get("children_s", {})
                    .get("fp_poly.squarefree", 0.0))
    return {
        "sequences.truncation_s": summary["truncation_s"],
        "sequences.coeffs": summary["coeffs"],
        "sequences.load_external_s": get("sequences.load_external", "inclusive_s"),
        "kernels.poly_divrem_s": get("kernels.poly_divrem", "own_s"),
        "kernels.poly_divrem_calls": get("kernels.poly_divrem", "calls"),
        "kernels.poly_gcd_s": get("kernels.poly_gcd", "own_s"),
        "kernels.poly_gcd_calls": get("kernels.poly_gcd", "calls"),
        "kernels.poly_mul_s": get("kernels.poly_mul", "own_s"),
        "kernels.poly_mul_calls": get("kernels.poly_mul", "calls"),
        "kernels.poly_mul_coeff_products": get("kernels.poly_mul", "size"),
        "kernels.series_mul_s": get("kernels.series_mul", "own_s"),
        "kernels.series_mul_calls": get("kernels.series_mul", "calls"),
        "kernels.series_mul_coeff_products": get("kernels.series_mul", "size"),
        "kernels.series_inv_s": get("kernels.series_inv", "own_s"),
        "fp_poly.squarefree_s": get("fp_poly.squarefree", "inclusive_s"),
        "fp_poly.squarefree_calls": get("fp_poly.squarefree", "calls"),
        "fp_poly.square_cofactor_s": cofactor_own,
        "fp_series.compose_s": get("fp_series.compose", "inclusive_s"),
        "fp_series.mul_calls": get("fp_series.mul", "calls"),
        "kummer_galois.records": get("kummer_galois.compute_record", "calls"),
        "kummer_galois.compute_record_s": get("kummer_galois.compute_record", "inclusive_s"),
        "kummer_galois.galois_degree_s": get("kummer_galois.galois_degree", "inclusive_s"),
        "kummer_galois.prediction_s": (get("kummer_galois.predicted_group", "inclusive_s")
                                       + get("kummer_galois.predicted_cofactor", "inclusive_s")),
        "modular_relations.h_2f1_s": get("modular_relations.h_2f1", "inclusive_s"),
        "modular_relations.power_identity_s": get("modular_relations.power_identity",
                                                  "inclusive_s"),
        "pattern_miner.sweep_s": get("pattern_miner.sweep", "inclusive_s"),
        "pattern_miner.cache_write_s": get("pattern_miner.append_cache", "inclusive_s"),
        "pattern_miner.cache_bytes": cache_bytes,
        "pattern_miner.cluster_s": get("pattern_miner.cluster_records", "inclusive_s"),
        "pattern_miner.infer_s": get("pattern_miner.infer_conditions", "inclusive_s"),
        "pattern_miner.recomputed": summary["recomputed"],
        "pattern_miner.warnings": summary["warnings"],
    }


# -- the run ----------------------------------------------------------------------


def bench(workload: str, seed: int, seconds: float, trace: bool, tmp: str, t0: float) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "APERY_CACHE")}
    env.update(PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=os.path.join(tmp, "pycache"))
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "env": environment(env, tmp)}
    inputs = make_inputs(workload, seed, tmp)
    info["args"] = inputs["args"]
    problems: list[str] = []
    if "bfile_check" in inputs:
        res = run_child(inputs["bfile_check"], env, tmp, 120)
        if res["code"] != 0:
            problems.append("b-file differs from term_exact at "
                            + (res["stdout"].decode().strip() or res["stderr"].decode()[-300:]))

    import_cmd = [sys.executable, "-c", "import aperylike.cli"]
    run_child(import_cmd, env, tmp, 60)  # fills the bytecode cache
    setup = [run_child(import_cmd, env, tmp, 60)["wall"] for _ in range(SETUP_SAMPLES)]

    cli = [sys.executable, "-m", "aperylike.cli"] + inputs["args"]
    summary_path = os.path.join(tmp, "trace.json")
    traced_cli = [sys.executable, os.path.join(HERE, "trace_cli.py"), summary_path, "--"]
    traced_cli += inputs["args"]
    walls, traced_walls, rss, layers = [], [], [], []
    attempted = failed = 0
    digest = None
    selftest_missed = None
    durations = []
    start = time.perf_counter()
    # Start a CLI run only if a typical run still ends within the measured time.
    while (attempted < (2 if trace else 1)
           or time.perf_counter() - start + statistics.median(durations) <= seconds):
        traced = trace and attempted % 2 == 1
        timeout = RUN_DEADLINE_S - (time.perf_counter() - t0)
        if timeout < 1:
            break
        res = run_child(traced_cli if traced else cli, env, tmp, timeout)
        durations.append(res["wall"])
        attempted += 1
        cache = None
        if "cache" in inputs:
            try:
                with open(inputs["cache"], "rb") as fh:
                    cache = fh.read()
                os.remove(inputs["cache"])
            except FileNotFoundError:
                cache = b""
        found = checks.check(workload, res["stdout"], res["code"], inputs["context"], cache)
        if found:
            failed += 1
            problems += [f"run {attempted}: {p}" for p in found]
            if res["stderr"]:
                problems.append(f"run {attempted} stderr: "
                                + res["stderr"].decode(errors="replace")[-500:])
            continue
        if selftest_missed is None:
            digest = hashlib.sha256(res["stdout"]).hexdigest()
            selftest_missed = checks.self_test(workload, res["stdout"], inputs["context"], seed)
        if traced:
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
            info["absent"] = summary["absent"]
            info["spans"] = summary["spans"]
            layers.append(layer_values(summary, len(cache) if cache is not None else 0))
            traced_walls.append(res["wall"])
        else:
            walls.append(res["wall"])
            rss.append(res["rss_kb"] / 1024)

    if selftest_missed:
        problems.append("checker accepted corrupted output: " + ", ".join(selftest_missed))
    selftest = ("not run" if selftest_missed is None
                else "failed" if selftest_missed else "passed")
    info.update(stdout_sha256=digest, selftest=selftest, setup_s=setup, wall_s=walls,
                traced_wall_s=traced_walls, peak_rss_mb=rss, problems=problems[:20])
    correct = not problems and bool(walls) and (bool(traced_walls) or not trace)
    if not trace:
        metrics = {
            "wall_s": {"value": statistics.median(walls) if walls else 0.0, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss) if rss else 0.0, "unit": "MB"},
        }
    else:
        metrics = {name: {"value": statistics.median(v[name] for v in layers) if layers else 0,
                          "unit": layer_unit(name)} for name in layer_values(EMPTY_SUMMARY, 0)}
        overhead = (statistics.median(traced_walls) - statistics.median(walls)
                    if walls and traced_walls else 0.0)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {"info": info, "result": {"correct": correct, "attempted": attempted,
                                     "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "aperylike", "cli.py")):
        print(f"error: no aperylike sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        out = bench(args.workload, args.seed, args.seconds, bool(args.trace), tmp, t0)
    except (RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print("info " + json.dumps(out["info"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
