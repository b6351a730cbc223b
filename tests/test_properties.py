"""Property tests over random primes and catalog rows (hypothesis,
derandomized so every run draws the same examples)."""
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from aperylike import kernels  # noqa: E402
from aperylike.finite_field import is_prime  # noqa: E402
from aperylike.fp_poly import FpPoly, mul_schoolbook  # noqa: E402
from aperylike.sequences import CATALOG, coefficients_mod_p, term_mod_p  # noqa: E402
from tests.conftest import EXACT_LAST, exact_terms  # noqa: E402

PRIMES = [p for p in range(5, 400) if is_prime(p)]
# primes up to the largest the library accepts, where one more term per
# product coefficient decides between one and two 64-bit limbs per slot
WIDE_PRIMES = [2, 3, 65521, 2 ** 31 - 19, 2 ** 31 - 1]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(key=st.sampled_from(sorted(CATALOG)), p=st.sampled_from(PRIMES))
def test_recurrence_head_matches_summand(key, p):
    # the exact sum is the oracle; a290576's reaches n = 204 only
    assume(p <= EXACT_LAST.get(key, p))
    spec = CATALOG[key]
    want = [e % p for e in exact_terms(key)[:p]]
    assert coefficients_mod_p(spec, p, p) == want
    assert [term_mod_p(spec, n, p) for n in range(p)] == want


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.one_of(st.sampled_from(WIDE_PRIMES), st.sampled_from(PRIMES)),
       la=st.integers(1, 300), lb=st.integers(1, 300),
       rnd=st.randoms(use_true_random=False))
def test_kronecker_matches_schoolbook(p, la, lb, rnd):
    # about half the coefficients are p-1, which makes every product term
    # the largest a slot can receive
    def coeffs(n):
        return [p - 1 if rnd.random() < 0.5 else rnd.randrange(p) for _ in range(n)]

    a, b = coeffs(la), coeffs(lb)
    assert kernels.poly_mul(a, b, p) == mul_schoolbook(a, b, p)


# lengths from 1 to five times the crossover, drawn uniformly by a seeded
# generator (hypothesis favours small integers), so most cases take the fast
# paths
MAX_LEN = 5 * kernels._CROSSOVER


def _poly(rnd, p, n):
    """n coefficients, about half of them p-1, with a nonzero lead."""
    out = [p - 1 if rnd.random() < 0.5 else rnd.randrange(p) for _ in range(n)]
    out[-1] = out[-1] or 1
    return out


@settings(derandomize=True, max_examples=40, deadline=None)
@given(p=st.one_of(st.sampled_from(WIDE_PRIMES), st.sampled_from(PRIMES)),
       seed=st.integers(0, 2 ** 32))
def test_half_gcd_matches_euclid(p, seed):
    rnd = random.Random(seed)
    lg, lu, lv = (rnd.randint(1, MAX_LEN) for _ in range(3))
    # a planted common factor g, so the gcd is not almost always 1
    g = _poly(rnd, p, lg)
    a = kernels.poly_mul(_poly(rnd, p, lu), g, p)
    b = kernels.poly_mul(_poly(rnd, p, lv), g, p)
    want = kernels.gcd_euclid(a, b, p)
    assert len(want) >= lg
    assert kernels.poly_gcd(a, b, p) == want
    assert kernels.poly_gcd(b, a, p) == want


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.one_of(st.sampled_from(WIDE_PRIMES), st.sampled_from(PRIMES)),
       seed=st.integers(0, 2 ** 32))
def test_newton_division_matches_classic(p, seed):
    rnd = random.Random(seed)
    lq, lb = rnd.randint(1, MAX_LEN), rnd.randint(1, MAX_LEN)
    # the quotient has lq coefficients
    a, b = _poly(rnd, p, lq + lb - 1), _poly(rnd, p, lb)
    assert kernels.poly_divrem(a, b, p) == kernels.divrem_classic(a, b, p)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(p=st.one_of(st.sampled_from(WIDE_PRIMES), st.sampled_from(PRIMES)),
       seed=st.integers(0, 2 ** 32))
def test_half_gcd_step_is_euclid(p, seed):
    # _hgcd(a, b) returns the consecutive remainders of Euclid's sequence
    # that straddle half of deg a, and the matrix that maps (a, b) to them
    rnd = random.Random(seed)
    la = rnd.randint(2, MAX_LEN)
    a, b = _poly(rnd, p, la), _poly(rnd, p, rnd.randint(1, la - 1))
    m, c, d = kernels._hgcd(a, b, p)
    h = len(a) // 2
    rems = [a, b]
    while rems[-1] and len(rems[-1]) > h:
        rems.append(kernels.divrem_classic(rems[-2], rems[-1], p)[1])
    assert [c, d] == rems[-2:]

    def apply(u, v):
        return list((FpPoly(u, p) * FpPoly(a, p) + FpPoly(v, p) * FpPoly(b, p)).coeffs)

    assert (apply(m[0], m[1]), apply(m[2], m[3])) == (c, d)
