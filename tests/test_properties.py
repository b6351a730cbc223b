"""Property tests over random primes and catalog rows (hypothesis,
derandomized so every run draws the same examples)."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from aperylike.finite_field import is_prime  # noqa: E402
from aperylike.sequences import CATALOG, coefficients_mod_p, term_mod_p  # noqa: E402

PRIMES = [p for p in range(5, 400) if is_prime(p)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(key=st.sampled_from(sorted(CATALOG)), p=st.sampled_from(PRIMES))
def test_recurrence_head_matches_summand(key, p):
    spec = CATALOG[key]
    assert coefficients_mod_p(spec, p, p) == [term_mod_p(spec, n, p) for n in range(p)]
