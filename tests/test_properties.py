"""Property tests over random primes and catalog rows (hypothesis,
derandomized so every run draws the same examples)."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from aperylike import kernels  # noqa: E402
from aperylike.finite_field import is_prime  # noqa: E402
from aperylike.fp_poly import mul_schoolbook  # noqa: E402
from aperylike.sequences import CATALOG, coefficients_mod_p, term_mod_p  # noqa: E402

PRIMES = [p for p in range(5, 400) if is_prime(p)]
# primes up to the largest the library accepts, where one more term per
# product coefficient decides between one and two 64-bit limbs per slot
WIDE_PRIMES = [2, 3, 65521, 2 ** 31 - 19, 2 ** 31 - 1]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(key=st.sampled_from(sorted(CATALOG)), p=st.sampled_from(PRIMES))
def test_recurrence_head_matches_summand(key, p):
    spec = CATALOG[key]
    assert coefficients_mod_p(spec, p, p) == [term_mod_p(spec, n, p) for n in range(p)]



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
