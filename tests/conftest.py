import functools
import random

import pytest

from aperylike.finite_field import is_prime
from aperylike.fp_poly import FpPoly
from aperylike.sequences import CATALOG, term_exact


def primes_between(lo, hi):
    return [n for n in range(max(lo, 5), hi + 1) if is_prime(n)]


# a290576's exact double sum is O(n^2) per term; the other rows reach n = 400
EXACT_LAST = {"a290576": 204}


@functools.lru_cache(maxsize=None)
def exact_terms(key):
    """The exact values of a catalog row for n <= its oracle bound, computed
    once per test session: the oracle for every mod-p evaluator."""
    spec = CATALOG[key]
    return tuple(term_exact(spec, n) for n in range(EXACT_LAST.get(key, 400) + 1))


@pytest.fixture
def rng():
    return random.Random(0xA9E41)


def random_poly(rng, p, max_deg, nonzero=False):
    deg = rng.randrange(-1, max_deg + 1)
    if deg < 0:
        if nonzero:
            deg = 0
        else:
            return FpPoly.zero(p)
    coeffs = [rng.randrange(p) for _ in range(deg + 1)]
    if coeffs[-1] == 0:
        coeffs[-1] = rng.randrange(1, p)
    return FpPoly(coeffs, p)


def random_squarefree(rng, p, max_deg):
    from aperylike.fp_poly import gcd
    while True:
        f = random_poly(rng, p, max_deg, nonzero=True)
        if f.degree <= 0:
            return FpPoly.one(p)
        if gcd(f, f.derivative()).degree == 0:
            return f.monic()
