"""Output oracles for the benchmark workloads, independent of aperylike.

Every expected value here comes from elementary number theory computed in this
file (trial-division primality, Euler's criterion) or from the input the
benchmark generated itself, never from the code being timed.  Each oracle
gives the exact bytes the CLI must print:

* galois-apery: the Kummer-Galois label of the Apery truncation at p is S
  (degree (p-1)/2) when (-6/p) = 1 and FULL (degree p-1) otherwise.
* verify-2f1: one ``hypergeometric p=<p>: PASS`` line per prime.
* mine-bfile: the cofactors cluster into 1 and 1 - 34t + t^2 exactly along the
  split by (-6/p).  The classifier is the first discriminant, in the miner's
  documented search order, whose Legendre symbol separates the two clusters.
  Each cache record must carry the b-file's own values mod p.

``self_test`` corrupts a passing output and confirms each corruption is caught.
"""
from __future__ import annotations

import json
import random

APERY_QUADRATIC = [1, -34, 1]
SELF_TEST_FLIPS = 8
# pattern_miner.DEFAULT_DISCRIMINANTS in the order the miner tries them
# (by |d|, negative first); a b-file sequence has no level to try before them.
DISCRIMINANT_ORDER = sorted((-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -11),
                            key=lambda d: (abs(d), d > 0))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion, for an odd prime p."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 5), hi + 1) if is_prime(n)]


def square_split(primes: list[int]) -> tuple[list[int], list[int]]:
    """Primes with (-6/p) = 1, where the Apery truncation is c times a square,
    and the rest."""
    return ([p for p in primes if legendre(-6, p) == 1],
            [p for p in primes if legendre(-6, p) != 1])


def galois_expected(primes: list[int], **_) -> bytes:
    lines = []
    for p in primes:
        square = legendre(-6, p) == 1
        label = "S" if square else "FULL"
        degree = (p - 1) // 2 if square else p - 1
        lines.append(f"p={p:<6} degree={degree:<8} label={label}  predicted={label}  ok\n")
    return "".join(lines).encode()


def verify_expected(primes: list[int], **_) -> bytes:
    return "".join(f"hypergeometric p={p}: PASS\n" for p in primes).encode()


def mine_expected(primes: list[int], lo: int, hi: int, seq_key: str, **_) -> bytes:
    square, other = square_split(primes)
    if not square or not other:
        raise ValueError(f"prime window {primes} does not meet both (-6/p) classes")
    d = next(d for d in DISCRIMINANT_ORDER
             if len({legendre(d, p) for p in square}) == 1
             and {legendre(d, p) for p in other} == {-legendre(d, square[0])})
    sign = legendre(d, square[0])
    clusters = [
        {"classifier": {"kind": "legendre", "symbols": [[d, s]]}, "cofactor": cofactor,
         "exceptions": [], "normalization": "constant", "primes": members}
        for cofactor, members, s in (([1], square, sign), (APERY_QUADRATIC, other, -sign))
    ]
    report = {"clusters": clusters, "ramified": [], "range": [lo, hi], "seq": seq_key,
              "status": "VALIDATED", "unmatched": []}
    return json.dumps(report, indent=2, sort_keys=True).encode()


EXPECTED = {"galois-apery": galois_expected, "verify-2f1": verify_expected,
            "mine-bfile": mine_expected}


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def check_cache(cache: bytes, primes: list[int], seq_key: str, values: list[int],
                **_) -> list[str]:
    """One parseable record per prime, each with A equal to the b-file mod p
    and the cofactor and degree the (-6/p) split predicts."""
    problems = []
    seen = []
    for line in cache.decode(errors="replace").splitlines():
        try:
            rec = json.loads(line)
            p = rec["p"]
            square = legendre(-6, p) == 1
            if rec["seq"] != seq_key:
                problems.append(f"cache record for {rec['seq']}")
            if rec["A"] != _trim([v % p for v in values[:p]]):
                problems.append(f"cache A at p={p} differs from the b-file")
            if rec["P"] != ([1] if square else [c % p for c in APERY_QUADRATIC]):
                problems.append(f"cache P at p={p}")
            if rec["degree"] != ((p - 1) // 2 if square else p - 1):
                problems.append(f"cache degree at p={p}")
            seen.append(p)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unparseable cache line ({exc})")
    if sorted(seen) != primes:
        problems.append(f"cache holds primes {sorted(seen)}, expected {primes}")
    return problems


def check(workload: str, out: bytes, exit_code: int, context: dict,
          cache: bytes | None = None) -> list[str]:
    """Problems found in one CLI run's output; an empty list means it passed."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if out != EXPECTED[workload](**context):
        problems.append("stdout differs from the oracle's")
    if cache is not None:
        problems += check_cache(cache, **context)
    return problems


# -- self-test ----------------------------------------------------------------------


def _flip_byte(out: bytes, rng: random.Random) -> bytes:
    i = rng.randrange(len(out))
    return out[:i] + bytes([out[i] ^ 0x01]) + out[i + 1:]


def _fail_line(workload: str, out: bytes, rng: random.Random) -> bytes | None:
    good, bad = {"galois-apery": (b"  ok\n", b"  MISMATCH\n"),
                 "verify-2f1": (b": PASS\n", b": FAIL\n")}.get(workload, (None, None))
    if good is None:
        return None
    lines = out.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    return b"".join(lines[:i] + [lines[i].replace(good, bad)] + lines[i + 1:])


def _move_prime(workload: str, out: bytes, rng: random.Random) -> bytes | None:
    if workload != "mine-bfile":
        return None
    report = json.loads(out)
    src, dst = rng.sample(report["clusters"], 2)
    if not src["primes"]:
        src, dst = dst, src
    p = src["primes"].pop(rng.randrange(len(src["primes"])))
    dst["primes"] = sorted(dst["primes"] + [p])
    return json.dumps(report, indent=2, sort_keys=True).encode()


def self_test(workload: str, out: bytes, context: dict, seed: int) -> list[str]:
    """Corrupt a passing output in each way that applies to the workload (a
    flipped byte, a FAIL line, a prime moved to the wrong cluster) and return
    the corruptions the checker wrongly accepted."""
    rng = random.Random(f"selftest:{workload}:{seed}")
    if check(workload, out, 0, context):
        return ["the uncorrupted output"]
    corruptions = [(f"flipped byte {k}", _flip_byte(out, rng)) for k in range(SELF_TEST_FLIPS)]
    corruptions.append(("FAIL line", _fail_line(workload, out, rng)))
    corruptions.append(("prime moved to the wrong cluster", _move_prime(workload, out, rng)))
    return [label for label, bad in corruptions
            if bad is not None and not check(workload, bad, 0, context)]
