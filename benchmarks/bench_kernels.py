#!/usr/bin/env python3
"""Benchmark the kernels behind the library's hot loops.

The products (``poly_mul``, ``series_mul``, both Kronecker substitutions)
are timed at degree about p.  Division and gcd are timed against their
quadratic oracles (``divrem_classic``, ``gcd_euclid``) on the inputs
squarefree decomposition meets: gcd(A_p, A_p') and A_p // gcd for the Apery
truncation A_p at p = 1987 and 4999 (degree about 2000 and 5000).  Sequence
truncations are not kernels (they come from the catalog recurrences) and
are not timed here.

Usage:
    python benchmarks/bench_kernels.py [--prime 499] [--repeat 3]
"""
import argparse
import random
import time

from aperylike import kernels
from aperylike.sequences import CATALOG, truncation_poly

# A_p of degree about 2000 and 5000
FAST_PATH_PRIMES = (1987, 4999)


def timed(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def inputs(p):
    rng = random.Random(1)
    n = p - 1
    a = [rng.randrange(p) for _ in range(n + 1)]
    b = [rng.randrange(p) for _ in range(n + 1)]
    series_n = 3 * p
    sa = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(series_n - 1)]
    sb = [rng.randrange(p) for _ in range(series_n)]
    return n, a, b, series_n, sa, sb


def product_workloads(p):
    n, a, b, series_n, sa, sb = inputs(p)
    return [
        (f"poly_mul(deg {n})", lambda: kernels.poly_mul(a, b, p)),
        (f"series_mul(N={series_n})", lambda: kernels.series_mul(sa, sb, series_n, p)),
    ]


def fast_path_workloads(p):
    """(name, fast path, quadratic oracle) for the two steps of squarefree
    decomposition that dominate at large p."""
    a = list(truncation_poly(CATALOG["apery"], p).coeffs)
    da = [i * c % p for i, c in enumerate(a)][1:]
    g = kernels.gcd_euclid(a, da, p)
    return [
        (f"gcd(A_{p}, A_{p}')", lambda: kernels.poly_gcd(a, da, p),
         lambda: kernels.gcd_euclid(a, da, p)),
        (f"A_{p} // gcd (deg {len(g) - 1})", lambda: kernels.poly_divrem(a, g, p),
         lambda: kernels.divrem_classic(a, g, p)),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", type=int, default=499)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    p = args.prime

    width = 26
    header = f"{'product':<{width}}{'time':>12}"
    print(header)
    print("-" * len(header))
    for name, fn in product_workloads(p):
        print(f"{name:<{width}}{timed(fn, args.repeat) * 1e3:>10.2f}ms")
    print()

    header = f"{'division and gcd':<{width}}{'fast':>12}{'oracle':>12}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for fp in FAST_PATH_PRIMES:
        for name, fast, oracle in fast_path_workloads(fp):
            t_fast, t_oracle = timed(fast, args.repeat), timed(oracle, args.repeat)
            print(f"{name:<{width}}{t_fast * 1e3:>10.2f}ms{t_oracle * 1e3:>10.2f}ms"
                  f"{t_oracle / t_fast:>9.1f}x")


if __name__ == "__main__":
    main()
