#!/usr/bin/env python3
"""Benchmark the kernel backends (compiled extension vs pure Python).

Runs the representative hot loops behind the library -- polynomial
products/gcd, truncated series arithmetic, the fractional twist -- on both
backends and prints the timings side by side.  Sequence truncations are not
kernels (they come from the catalog recurrences) and are not timed here.

Usage:
    python benchmarks/bench_kernels.py [--prime 499] [--repeat 3]
"""
import argparse
import random
import time

from aperylike.kernels import get_backends
from aperylike.modular_relations import franel_truncation


def timed(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def workloads(backend, p, rng):
    n = p - 1
    a = [rng.randrange(p) for _ in range(n + 1)]
    b = [rng.randrange(p) for _ in range(n + 1)]
    series_n = 3 * p
    sa = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(series_n - 1)]
    sb = [rng.randrange(p) for _ in range(series_n)]
    h = list(franel_truncation(p).coeffs)
    return [
        (f"poly_mul(deg {n})", lambda: backend.poly_mul(a, b, p)),
        (f"poly_gcd(deg {n})", lambda: backend.poly_gcd(a, b, p)),
        (f"series_mul(N={series_n})", lambda: backend.series_mul(sa, sb, series_n, p)),
        (f"series_inv(N={series_n})", lambda: backend.series_inv(sa, series_n, p)),
        (f"twist_sum(H, deg-1 maps)", lambda: backend.twist_sum(h, [1, p - 8], [8, 8], p)),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", type=int, default=499)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    backends = get_backends()
    if len(backends) < 2:
        print("note: compiled backend not built; timing pure backend only")

    p = args.prime
    names = [name for name, _ in workloads(next(iter(backends.values())), p,
                                           random.Random(1))]
    columns = {key: [] for key in backends}
    for key, backend in backends.items():
        rng = random.Random(1)
        for _, fn in workloads(backend, p, rng):
            columns[key].append(timed(fn, args.repeat))

    width = max(len(n) for n in names) + 2
    header = f"{'workload':<{width}}" + "".join(f"{key:>12}" for key in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for i, name in enumerate(names):
        row = f"{name:<{width}}"
        for key in backends:
            row += f"{columns[key][i] * 1e3:>10.2f}ms"
        if len(backends) == 2:
            pure_t = columns["pure"][i]
            fast_t = columns["compiled"][i]
            row += f"{pure_t / fast_t:>9.1f}x"
        print(row)


if __name__ == "__main__":
    main()
