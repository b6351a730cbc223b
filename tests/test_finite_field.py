import math

import pytest

from aperylike.errors import UnsupportedPrimeError
from aperylike.finite_field import (binomial_lucas, check_prime,
                                    factorial_tables, inv_mod, is_prime,
                                    legendre, mult_order)
from tests.conftest import primes_between


class TestPrime:
    def test_accepts_odd_primes(self):
        assert check_prime(5) == 5
        assert check_prime(10007) == 10007

    @pytest.mark.parametrize("bad", [2, 3, 1, 0, 9, 15, 91, 2**31 + 11])
    def test_rejects(self, bad):
        with pytest.raises(UnsupportedPrimeError):
            check_prime(bad)

    def test_is_prime_against_sieve(self):
        sieve = set(primes_between(5, 2000)) | {2, 3}
        for n in range(2, 2000):
            assert is_prime(n) == (n in sieve)


class TestPowInv:
    def test_inv_examples(self):
        assert inv_mod(2, 5) == 3
        assert inv_mod(9, 13) == 3
        assert 9 * inv_mod(9, 13) % 13 == 1

    def test_inv_zero(self):
        with pytest.raises(ZeroDivisionError):
            inv_mod(0, 7)


class TestLegendre:
    def test_examples(self):
        assert legendre(2, 7) == 1
        assert legendre(-1, 13) == 1
        # -5 = 2 mod 7 and 2 = 3^2 mod 7
        assert legendre(-5, 7) == 1
        assert legendre(0, 7) == 0

    def test_against_exhaustive_squares(self):
        for p in primes_between(5, 100):
            squares = {a * a % p for a in range(1, p)}
            for a in range(p):
                want = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre(a, p) == want


@pytest.mark.parametrize("p", [2, 3] + primes_between(5, 113))
def test_quadratic_character_brute_force(p):
    # 2 and 3 are below the range check_prime accepts, but legendre accepts them
    for a in range(p):
        roots = [r for r in range(p) if r * r % p == a]
        assert legendre(a, p) == (0 if a == 0 else 1 if roots else -1)


class TestMultOrder:
    def test_examples(self):
        assert mult_order(1, 7) == 1
        assert mult_order(2, 7) == 3
        assert mult_order(3, 7) == 6

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            mult_order(0, 11)

    def test_divides_group_order(self):
        for p in primes_between(5, 101):
            for a in range(1, p):
                order = mult_order(a, p)
                assert (p - 1) % order == 0
                assert pow(a, order, p) == 1
                # minimality against direct iteration for small p
                if p <= 31:
                    x, k = a % p, 1
                    while x != 1:
                        x = x * a % p
                        k += 1
                    assert k == order


class TestLucasBinomials:
    def test_examples(self):
        assert binomial_lucas(7, 2, 5) == 1
        assert binomial_lucas(10, 0, 7) == 1
        assert binomial_lucas(3, 5, 7) == 0
        assert binomial_lucas(-1, 0, 7) == 0

    def test_negative_one_row(self):
        for p in (5, 7, 13):
            for k in range(p):
                assert binomial_lucas(p - 1, k, p) == pow(-1, k, p)

    def test_against_exact_binomials(self):
        for p in (5, 7, 13):
            for m in range(301):
                for k in range(m + 1):
                    assert binomial_lucas(m, k, p) == math.comb(m, k) % p

    def test_factorial_tables(self):
        fact, ifact = factorial_tables(11)
        assert fact[10] == math.factorial(10) % 11
        for i in range(11):
            assert fact[i] * ifact[i] % 11 == 1
