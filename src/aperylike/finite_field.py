"""Exact arithmetic in F_p plus the quadratic-character and order primitives.

Moduli are restricted to primes 5 <= p < 2^31: the constants 8/9, 1/9 and
the hypergeometric parameters 1/3, 2/3 used elsewhere degenerate at 2 and 3,
and 31-bit residues keep every product inside 64 bits.
"""
from __future__ import annotations

import functools

from .errors import UnsupportedPrimeError

MAX_PRIME = 2 ** 31

# deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24;
# is_prime also trial-divides by it first
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit inputs."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(value: int) -> int:
    """``value`` if it is a prime modulus 5 <= p < 2^31, else
    ``UnsupportedPrimeError``."""
    if value in (2, 3):
        raise UnsupportedPrimeError(f"p = {value} is excluded (need p >= 5)")
    if value >= MAX_PRIME:
        raise UnsupportedPrimeError(f"p = {value} exceeds the 2^31 limit")
    if not is_prime(value):
        raise UnsupportedPrimeError(f"{value} is not prime")
    return value


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {p}")
    return pow(a, p - 2, p)


def legendre(a: int, p: int) -> int:
    """Quadratic character of a mod p: +1 for squares, -1 for non-squares, 0 if p | a."""
    a %= p
    if a == 0:
        return 0
    # Euler's criterion; compared with 1, since -1 = p - 1 is also 1 mod 2
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (fine for n < 2^31)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mult_order(a: int, p: int) -> int:
    """Smallest k >= 1 with a^k = 1 mod p; always divides p - 1."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative order")
    order = p - 1
    for q in factorize(p - 1):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


@functools.lru_cache(maxsize=128)
def factorial_tables(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(k!, 1/k!) for 0 <= k < p, as immutable per-prime tables."""
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    ifact = [1] * p
    ifact[p - 1] = pow(fact[p - 1], p - 2, p)
    for i in range(p - 1, 0, -1):
        ifact[i - 1] = ifact[i] * i % p
    return tuple(fact), tuple(ifact)


@functools.lru_cache(maxsize=128)
def digit_binomial(p: int):
    """C(m, k) mod p as a function of (m, k), with the tables of p bound once.

    Digit-product (Lucas) rule; 0 outside 0 <= k <= m.  Bulk evaluators take
    this function as an argument so the per-prime lookups stay out of their
    inner loops.
    """
    fact, ifact = factorial_tables(p)

    def binom(m: int, k: int) -> int:
        if k < 0 or m < 0 or k > m:
            return 0
        r = 1
        while k or m:
            mi = m % p
            ki = k % p
            if ki > mi:
                return 0
            r = r * fact[mi] % p * ifact[ki] % p * ifact[mi - ki] % p
            m //= p
            k //= p
        return r

    return binom


def binomial_lucas(m: int, k: int, p: int) -> int:
    """C(m, k) mod p by the digit-product rule; 0 outside 0 <= k <= m."""
    return digit_binomial(p)(m, k)
