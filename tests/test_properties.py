"""Property tests over random primes and catalog rows (hypothesis,
derandomized so every run draws the same examples)."""
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from aperylike import kernels  # noqa: E402
from aperylike.finite_field import is_prime  # noqa: E402
from aperylike.fp_poly import FpPoly, mul_schoolbook  # noqa: E402
from aperylike.pattern_miner import ClusterReport, _trials  # noqa: E402
from aperylike.sequences import (CATALOG, LIMB_DIGITS, coefficients_mod_p,  # noqa: E402
                                load_external, term_exact, term_mod_p)
from tests.conftest import EXACT_LAST, exact_terms  # noqa: E402

PRIMES = [p for p in range(5, 400) if is_prime(p)]
# primes up to the largest the library accepts; at 65521 and 2^31-1, one
# more term per product coefficient decides between 4- and 8-byte and
# between 8- and 16-byte slots
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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.one_of(st.sampled_from(WIDE_PRIMES), st.sampled_from(PRIMES)),
       seed=st.integers(0, 2 ** 32))
def test_muladd_matches_schoolbook_sums(p, seed):
    # zero to three pairs, empty factors included, plus a shifted term; about
    # half the coefficients are p-1, the largest a slot can receive
    rnd = random.Random(seed)

    def coeffs():
        n = rnd.choice([0, rnd.randint(1, 8), rnd.randint(1, 150)])
        return [p - 1 if rnd.random() < 0.5 else rnd.randrange(p) for _ in range(n)]

    pairs = [(coeffs(), coeffs()) for _ in range(rnd.randint(0, 3))]
    shift, k = coeffs(), rnd.randint(0, 160)
    want = [0] * (k + len(shift)) if shift else []
    for i, c in enumerate(shift):
        want[k + i] = c
    for a, b in pairs:
        if a and b:
            prod = mul_schoolbook(a, b, p)
            want.extend([0] * (len(prod) - len(want)))
            for i, c in enumerate(prod):
                want[i] = (want[i] + c) % p
    assert kernels._muladd(pairs, p, shift, k) == want
    count = rnd.randint(0, len(want))
    assert kernels._muladd(pairs, p, shift, k, count) == want[:count]


@pytest.mark.parametrize("terms, shifted", [(1311, False), (1310, True), (1311, True)])
def test_muladd_slot_width(terms, shifted):
    # at p = 1811, 1311 (p-1)^2 < 2^32 <= 1311 (p-1)^2 + p-1: two pairs whose
    # plateaus overlap on slots 999..1399 sum to `terms` terms there, and the
    # shifted term p-1 at slot 1200 makes that slot the largest a 4-byte
    # slot can receive (1311 without, 1310 with the shift) or the smallest
    # that needs 8 bytes.  Every term is (p-1)^2 = 1 or p-1 = -1 mod p.
    p = 1811
    lens = [(1000, 1400), (terms - 1000, 1400)]
    pairs = [([p - 1] * la, [p - 1] * lb) for la, lb in lens]
    shift, k = ([p - 1], 1200) if shifted else ((), 0)
    want = [sum(max(0, min(i, la - 1) - max(0, i - lb + 1) + 1) for la, lb in lens)
            for i in range(2399)]
    if shifted:
        want[k] -= 1
    assert kernels._muladd(pairs, p, shift, k) == [c % p for c in want]


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


# outer lengths k at and next to the chunk boundaries of series_compose,
# whose chunks have ceil(sqrt(k)) coefficients
OUTER_LENGTHS = sorted({1, 2} | {s * s + d for s in range(2, 18) for d in (-1, 0, 1)})


def _compose_prefixes(f, g, n, p):
    """For k = 1 .. len(f), sum_{j<k} f[j] g^j mod x^n, the powers from the
    schoolbook product."""
    acc, power = [0] * n, [1]
    for c in f:
        acc = list(acc)
        for i, x in enumerate(power):
            acc[i] = (acc[i] + c * x) % p
        yield acc
        # only indices below n are kept: past the first nonzero power[v],
        # only g[:n - v] can reach them
        v = next((i for i, x in enumerate(power) if x), n)
        power = mul_schoolbook(power, g[:n - v], p)[:n] if v < n else []


@settings(derandomize=True, max_examples=25, deadline=None)
@given(p=st.one_of(st.sampled_from(WIDE_PRIMES), st.sampled_from(PRIMES)),
       val=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_series_compose_matches_powers(p, val, seed):
    rnd = random.Random(seed)
    n = rnd.randint(1, 300)

    def coeffs(count):
        return [p - 1 if rnd.random() < 0.5 else rnd.randrange(p) for _ in range(count)]

    f = coeffs(OUTER_LENGTHS[-1])
    g = [0] * val + coeffs(n - val)
    if n > val:
        g[val] = g[val] or 1  # valuation exactly val
    for k, want in enumerate(_compose_prefixes(f, g, n, p), 1):
        if k in OUTER_LENGTHS:
            assert kernels.series_compose(f[:k], g, n, p) == want, k


def test_series_compose_two_limb_slots():
    # k = 100 gives chunks of m = 10 powers; with every coefficient p-1 a
    # slot of a chunk's combination then passes 2^64, so it needs 16 bytes
    p = 2 ** 31 - 1
    n = 100
    f, g = [p - 1] * 100, [0] + [p - 1] * (n - 1)
    assert kernels.series_compose(f, g, n, p) == list(_compose_prefixes(f, g, n, p))[-1]


def _cleared_by_definition(cs, u, v, degree, p):
    """sum_k cs[k] u^k v^(degree-k), nested as c_0 v^d + u (c_1 v^(d-1) + u (...)),
    every product from the schoolbook loop; trimmed."""
    vpow = [[1]]
    for _ in range(degree):
        vpow.append(mul_schoolbook(vpow[-1], v, p))
    acc = []
    for k in range(degree, -1, -1):
        acc = mul_schoolbook(acc, u, p) if acc and u else []
        term = [cs[k] * x % p for x in vpow[degree - k]] if k < len(cs) else []
        acc += [0] * (len(term) - len(acc))
        for i, x in enumerate(term):
            acc[i] = (acc[i] + x) % p
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


@settings(derandomize=True, max_examples=40, deadline=None)
@given(p=st.one_of(st.sampled_from(WIDE_PRIMES), st.sampled_from(PRIMES)),
       seed=st.integers(0, 2 ** 32))
def test_substitute_rational_matches_definition(p, seed):
    # lengths drawn uniformly by a seeded generator, so that odd and even
    # lengths and unequal halves occur at several split levels; the clearing
    # degree runs from deg self to deg self + 3, and u may be zero
    rnd = random.Random(seed)
    cs = _poly(rnd, p, rnd.randint(1, 300))
    degree = len(cs) - 1 + rnd.randint(0, 3)
    u = rnd.choice([[], _poly(rnd, p, rnd.randint(1, 3))])
    v = _poly(rnd, p, rnd.randint(1, 3))
    got = FpPoly(cs, p).substitute_rational(FpPoly(u, p), FpPoly(v, p), degree)
    assert list(got.coeffs) == _cleared_by_definition(cs, u, v, degree, p)


K = LIMB_DIGITS
# 2 and 5 divide 10^K; 10^700 + 1 exceeds two limbs, so Horner's accumulator
# is reduced inside a value of three or more limbs
TABLE_MODULI = [2, 3, 5, 7, 1999, 2 ** 61 - 1, 10 ** 700 + 1]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 3),
                               st.sampled_from([1, K - 1, K, K + 1, 2 * K, 3 * K + 1])),
                     min_size=1, max_size=6),
       p=st.sampled_from(TABLE_MODULI), rnd=st.randoms(use_true_random=False))
def test_limb_table_matches_int(tmp_path_factory, rows, p, rnd):
    # signed values with leading zeros, around each multiple of the limb width
    texts = [sign + "0" * zeros + str(rnd.randrange(10 ** (length - 1), 10 ** length))
             for sign, zeros, length in rows]
    path = tmp_path_factory.mktemp("limbs") / "t.b"
    path.write_text("".join(f"{n} {t}\n" for n, t in enumerate(texts)), encoding="utf-8")
    spec = load_external(path)
    want = [int(t) for t in texts]
    assert spec.terms.size == len(texts)
    assert [term_exact(spec, n) for n in range(len(texts))] == want
    assert coefficients_mod_p(spec, len(texts), p) == [v % p for v in want]
    assert [term_mod_p(spec, n, p) for n in range(len(texts))] == [v % p for v in want]
    for limbs, v in zip(spec.terms.limbs, want):
        assert all(abs(x) < 10 ** K and x * v >= 0 for x in limbs)



@settings(derandomize=True, max_examples=30, deadline=None)
@given(k=st.integers(1, 5), level=st.sampled_from([None, 6, 10, 12, 30]),
       rnd=st.randoms(use_true_random=False))
def test_trial_classifiers_are_exclusive(k, level, rnd):
    # no unramified prime matches two classifiers of one trial, so the
    # classifiers `_assign` gives the clusters never claim a prime twice
    sample = rnd.sample(PRIMES, rnd.randint(k, len(PRIMES)))
    clusters = [ClusterReport((i,), None, tuple(sorted(sample[i::k])), ()) for i in range(k)]
    for trial in _trials(clusters, level):
        for p in PRIMES:
            assert sum(c.matches(p) is True for c in trial) <= 1
