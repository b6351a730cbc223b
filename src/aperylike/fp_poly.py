"""Dense univariate polynomial algebra over F_p.

Coefficients are stored ascending (index = exponent) with no trailing
zeros; the zero polynomial has an empty coefficient tuple and degree -inf.
Every product is the Kronecker substitution ``kernels.poly_mul``;
``mul_schoolbook`` is the independent quadratic oracle it is tested against.
``FpPoly.substitute_rational`` is the one denominator-cleared substitution
of a fraction u/v, a divide and conquer on those products.
Division and gcd are ``kernels.poly_divrem`` and ``kernels.poly_gcd``:
Newton division and a half-gcd from degree ``kernels._CROSSOVER`` on, with
the quadratic loops ``kernels.divrem_classic`` and ``kernels.gcd_euclid`` as
base cases and oracles.
"""
from __future__ import annotations

import operator
from functools import reduce

from . import kernels
from ._record import record
from .finite_field import inv_mod

_NEG_INF = float("-inf")


class FpPoly:
    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int, *, _trusted: bool = False):
        p = int(p)
        if _trusted:
            self.coeffs = tuple(coeffs)
        else:
            cs = [int(c) % p for c in coeffs]
            while cs and cs[-1] == 0:
                cs.pop()
            self.coeffs = tuple(cs)
        self.p = p

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, p: int) -> "FpPoly":
        return cls((), p, _trusted=True)

    @classmethod
    def one(cls, p: int) -> "FpPoly":
        return cls((1,), p, _trusted=True)

    @classmethod
    def constant(cls, c: int, p: int) -> "FpPoly":
        return cls((c,), p)

    # -- basics ----------------------------------------------------------------
    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else _NEG_INF

    def __bool__(self):
        return bool(self.coeffs)

    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, FpPoly):
            return self.p == other.p and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == FpPoly.constant(other, self.p)
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.p))

    def _check(self, other: "FpPoly"):
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    # -- ring operations ---------------------------------------------------------
    def __add__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        return FpPoly(_list_add(list(self.coeffs), list(other.coeffs), self.p), self.p)

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        return self + (-other)

    def __neg__(self) -> "FpPoly":
        return FpPoly(tuple((self.p - c) % self.p for c in self.coeffs), self.p, _trusted=True)

    def scale(self, c: int) -> "FpPoly":
        c = int(c) % self.p
        if c == 0:
            return FpPoly.zero(self.p)
        if c == 1:
            return self
        return FpPoly([c * x % self.p for x in self.coeffs], self.p)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        if not self or not other:
            return FpPoly.zero(self.p)
        # lc(self) * lc(other) != 0 mod p, so the product needs no trimming
        return FpPoly(kernels.poly_mul(self.coeffs, other.coeffs, self.p), self.p, _trusted=True)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FpPoly":
        """Left-to-right binary power: one square per bit below the top one
        and one product by self per set bit, so f ** 1 is f itself."""
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return FpPoly.one(self.p)
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def divrem(self, other: "FpPoly") -> tuple["FpPoly", "FpPoly"]:
        self._check(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = kernels.poly_divrem(list(self.coeffs), list(other.coeffs), self.p)
        return FpPoly(q, self.p, _trusted=True), FpPoly(r, self.p, _trusted=True)

    def __floordiv__(self, other: "FpPoly") -> "FpPoly":
        return self.divrem(other)[0]

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return self.divrem(other)[1]

    def monic(self) -> "FpPoly":
        if not self or self.coeffs[-1] == 1:
            return self
        return self.scale(inv_mod(self.coeffs[-1], self.p))

    def derivative(self) -> "FpPoly":
        return FpPoly([i * c % self.p for i, c in enumerate(self.coeffs)][1:], self.p)

    def eval(self, a: int) -> int:
        a = int(a) % self.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % self.p
        return acc

    # -- structure ------------------------------------------------------------
    def pth_root(self) -> "FpPoly":
        """Inverse of Frobenius for polynomials in t^p: c at exponent pk -> c at k.

        Valid because c^p = c in F_p; raises if some exponent with a nonzero
        coefficient is not divisible by p.
        """
        p = self.p
        for i, c in enumerate(self.coeffs):
            if c and i % p:
                raise ValueError("polynomial is not a polynomial in t^p")
        return FpPoly(self.coeffs[::p], self.p, _trusted=True)

    def squarefree_decomposition(self) -> list[tuple["FpPoly", int]]:
        """Write self = lc * prod g_i^(e_i) with g_i monic squarefree, pairwise coprime.

        Characteristic-p variant: whenever the running part has zero
        derivative it is a polynomial in t^p, whose p-th root is taken
        coefficientwise before recursing with multiplicities scaled by p.
        """
        if not self:
            raise ZeroDivisionError("decomposition of the zero polynomial")
        p = self.p
        parts: list[tuple[FpPoly, int]] = []

        def rec(f: FpPoly, scale: int):
            if f.degree <= 0:
                return
            df = f.derivative()
            if not df:
                rec(f.pth_root(), scale * p)
                return
            c = gcd(f, df)
            w = f // c
            i = 1
            while w.degree > 0:
                y = gcd(w, c)
                z = w // y
                if z.degree > 0:
                    parts.append((z.monic(), i * scale))
                w = y
                c = c // y
                i += 1
            if c.degree > 0:
                rec(c.pth_root(), scale * p)

        rec(self.monic(), 1)
        parts.sort(key=lambda ge: (ge[1], len(ge[0].coeffs), ge[0].coeffs))
        return parts

    def square_cofactor(self) -> "SquareCofactor":
        """Split self = c * P * B^2 with P the monic squarefree odd-multiplicity part."""
        return SquareCofactor.from_parts(self, self.squarefree_decomposition())

    def substitute_rational(self, u: "FpPoly", v: "FpPoly",
                            degree: int | None = None) -> "FpPoly":
        """Numerator of self(u/v) cleared by v^degree: the sum of
        c_k u^k v^(degree-k), with degree deg self by default.

        Divide and conquer on the L = degree+1 zero-padded coefficients cs:
        T(cs) = v^(L-h) T(cs[:h]) + u^h T(cs[h:]) with h = L // 2, and
        T((c,)) = c (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 9).
        Each power of u and v is built once, from its two halves; for u and v
        of bounded degree that is O(M(L) log L), M(L) the cost of one product
        of degree L.
        """
        self._check(u)
        self._check(v)
        if not v:
            raise ZeroDivisionError("zero denominator in rational substitution")
        d = max(len(self.coeffs) - 1, 0)
        if degree is None:
            degree = d
        elif degree < d:
            raise ValueError(f"clearing degree {degree} is below the degree {d}")
        p = self.p
        cs = self.coeffs + (0,) * (degree + 1 - len(self.coeffs))
        powers: dict[tuple[bool, int], FpPoly] = {}

        def power(f: FpPoly, k: int) -> FpPoly:
            key = (f is v, k)
            if key not in powers:
                powers[key] = f if k == 1 else power(f, k // 2) * power(f, k - k // 2)
            return powers[key]

        def cleared(lo: int, n: int) -> FpPoly:
            # T(cs[lo:lo+n])
            if n == 1:
                return FpPoly.constant(cs[lo], p)
            h = n // 2
            return power(v, n - h) * cleared(lo, h) + power(u, h) * cleared(lo + h, n - h)

        return cleared(0, len(cs))

    def __repr__(self):
        return f"FpPoly({list(self.coeffs)} mod {self.p})"

    def __str__(self):
        return self.format()

    def format(self, var: str = "t") -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(var if c == 1 else f"{c}*{var}")
            else:
                terms.append(f"{var}^{i}" if c == 1 else f"{c}*{var}^{i}")
        return " + ".join(terms)


def _list_add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return out


def mul_schoolbook(a: list[int], b: list[int], p: int) -> list[int]:
    """Quadratic product on raw coefficient lists; the oracle for the
    Kronecker product, so it must not call ``kernels``."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def gcd(f: FpPoly, g: FpPoly) -> FpPoly:
    """Monic gcd; gcd(f, 0) = monic(f).  Raises on gcd(0, 0)."""
    f._check(g)
    if not f and not g:
        raise ZeroDivisionError("gcd(0, 0) is undefined")
    return FpPoly(kernels.poly_gcd(list(f.coeffs), list(g.coeffs), f.p), f.p, _trusted=True)


@record
class SquareCofactor:
    """Factorization data A = c * P * B^2 with P monic squarefree."""

    c: int
    cofactor: FpPoly
    root: FpPoly

    @classmethod
    def from_parts(cls, a: FpPoly, parts: list[tuple[FpPoly, int]]) -> "SquareCofactor":
        """Split a given its squarefree decomposition; checks the re-expansion."""
        def product(fs: list[FpPoly]) -> FpPoly:
            return reduce(operator.mul, fs) if fs else FpPoly.one(a.p)

        cof = product([g for g, e in parts if e % 2])
        root = product([g ** (e // 2) for g, e in parts if e > 1])
        result = cls(a.lc(), cof, root)
        if result.expand() != a:
            raise ArithmeticError("square cofactor re-expansion failed")
        return result

    def expand(self) -> FpPoly:
        return (self.cofactor * self.root * self.root).scale(self.c)
