"""Truncated power series over F_p with explicit precision.

A series carries exactly N coefficients and is understood modulo x^N.
Precision is data, not ambient state: binary operations return the minimum
precision of their operands, so accuracy loss is always visible.
"""
from __future__ import annotations

from . import kernels
from .finite_field import inv_mod
from .fp_poly import FpPoly


class FpSeries:
    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int, *, _trusted: bool = False):
        p = int(p)
        if _trusted:
            self.coeffs = tuple(coeffs)
        else:
            self.coeffs = tuple(int(c) % p for c in coeffs)
        if not self.coeffs:
            raise ValueError("series needs precision >= 1")
        self.p = p

    @classmethod
    def from_poly(cls, poly: FpPoly, precision: int) -> "FpSeries":
        cs = list(poly.coeffs[:precision])
        cs += [0] * (precision - len(cs))
        return cls(cs, poly.p, _trusted=True)

    @classmethod
    def one(cls, p: int, precision: int) -> "FpSeries":
        return cls((1,) + (0,) * (precision - 1), p, _trusted=True)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def __eq__(self, other):
        if isinstance(other, FpSeries):
            return self.p == other.p and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.p))

    def _check(self, other: "FpSeries"):
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def truncate(self, n: int) -> "FpSeries":
        if n > len(self.coeffs):
            raise ValueError(f"cannot extend precision {len(self.coeffs)} to {n}")
        return FpSeries(self.coeffs[:n], self.p, _trusted=True)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all known ones vanish."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "FpSeries") -> "FpSeries":
        self._check(other)
        n = min(len(self.coeffs), len(other.coeffs))
        return FpSeries([(self.coeffs[i] + other.coeffs[i]) % self.p for i in range(n)],
                        self.p, _trusted=True)

    def __sub__(self, other: "FpSeries") -> "FpSeries":
        return self + (-other)

    def __neg__(self) -> "FpSeries":
        return FpSeries(tuple((self.p - c) % self.p for c in self.coeffs), self.p, _trusted=True)

    def scale(self, c: int) -> "FpSeries":
        c = int(c) % self.p
        return FpSeries([c * x % self.p for x in self.coeffs], self.p, _trusted=True)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        n = min(len(self.coeffs), len(other.coeffs))
        out = kernels.series_mul(list(self.coeffs), list(other.coeffs), n, self.p)
        return FpSeries(out, self.p, _trusted=True)

    __rmul__ = __mul__

    def inv(self) -> "FpSeries":
        """Multiplicative inverse; needs a nonzero constant term.

        Newton iteration, ``kernels.series_inv``.
        """
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        g = kernels.series_inv(self.coeffs, len(self.coeffs), self.p)
        return FpSeries(g, self.p, _trusted=True)

    def pow_int(self, k: int) -> "FpSeries":
        """Left-to-right binary power, as ``FpPoly.__pow__``; a negative k
        powers the inverse."""
        if k < 0:
            return self.inv().pow_int(-k)
        if k == 0:
            return FpSeries.one(self.p, len(self.coeffs))
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def compose(self, inner: "FpSeries") -> "FpSeries":
        """self(inner) for inner with zero constant term.

        Only the first k = ceil(N / val(inner)) outer coefficients can reach
        the truncation order N.  ``kernels.series_compose`` evaluates them
        by Brent-Kung baby steps and giant steps: about 2*sqrt(k) products of
        length N, where Horner takes k.
        """
        self._check(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs inner series with zero constant term")
        n = min(len(self.coeffs), len(inner.coeffs))
        p = self.p
        val = inner.truncate(n).valuation()
        if val is None:
            return FpSeries((self.coeffs[0],) + (0,) * (n - 1), p, _trusted=True)
        relevant = min(n, (n - 1) // val + 1)
        out = kernels.series_compose(self.coeffs[:relevant], inner.coeffs, n, p)
        return FpSeries(out, p, _trusted=True)

    def sqrt_inv(self) -> "FpSeries":
        """g with g^2 * self = 1, normalized by g(0) = 1; needs self(0) = 1.

        Newton iteration g <- g * (3 - f g^2) / 2 doubling precision.  With
        g right mod x^k, f g^2 = 1 + x^k e, so the step only appends the
        coefficients k.. of -g e / 2.
        """
        if self.coeffs[0] != 1:
            raise ValueError("inverse square root needs constant term 1 (normalize first)")
        p = self.p
        n = len(self.coeffs)
        minus_half = inv_mod(p - 2, p)
        g = [1]
        f = list(self.coeffs)
        while len(g) < n:
            k, prec = len(g), min(2 * len(g), n)
            fg2 = kernels.series_mul(kernels.series_mul(g, g, prec, p), f[:prec], prec, p)
            g += [c * minus_half % p for c in kernels.series_mul(g, fg2[k:], prec - k, p)]
        return FpSeries(g, p, _trusted=True)

    def sqrt(self) -> "FpSeries":
        """s with s^2 = self, normalized by s(0) = 1; needs self(0) = 1.

        With m = ceil(N/2), g = ``sqrt_inv`` to precision m and s0 = self * g
        is the root mod x^m; one Karp-Markstein step then lifts it to x^N as
        s0 + g * (self - s0^2) / 2, where self - s0^2 vanishes below x^m and
        g agrees with 1/s0 there.  That is about half the work of
        ``sqrt_inv`` at full precision.
        """
        if self.coeffs[0] != 1:
            raise ValueError("square root needs constant term 1 (normalize first)")
        p = self.p
        n = len(self.coeffs)
        m = (n + 1) // 2
        g = list(self.truncate(m).sqrt_inv().coeffs)
        s0 = kernels.series_mul(list(self.coeffs[:m]), g, m, p)
        sq = kernels.series_mul(s0, s0, n, p)
        err = [(c - x) % p for c, x in zip(self.coeffs[m:], sq[m:])]
        half = inv_mod(2, p)
        lift = kernels.series_mul(g, err, n - m, p)
        return FpSeries(s0 + [c * half % p for c in lift], p, _trusted=True)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"FpSeries([{shown}{tail}] mod {self.p}, N={len(self.coeffs)})"


def expand_rational(u: FpPoly, v: FpPoly, precision: int) -> FpSeries:
    """Series of u/v to the given precision; v(0) must be invertible."""
    if u.p != v.p:
        raise ValueError("modulus mismatch")
    p = u.p
    if not v or v.coeffs[0] == 0:
        raise ZeroDivisionError("denominator must have nonzero constant term")
    v0_inv = inv_mod(v.coeffs[0], p)
    out = [0] * precision
    vs = v.coeffs
    for i in range(precision):
        s = u[i]
        for j in range(1, min(i, len(vs) - 1) + 1):
            s -= vs[j] * out[i - j]
        out[i] = s * v0_inv % p
    return FpSeries(out, p, _trusted=True)


def hypergeometric_2f1(precision: int, p: int) -> FpSeries:
    """The Gauss series sum_k (a)_k (b)_k / ((c)_k k!) y^k of the fixed
    weights (a, b; c) = (1/3, 2/3; 1), the series of the Franel link, with
    the weights realized as residues mod p.

    Coefficient k needs k! invertible, so at most p coefficients (k < p)
    can be produced; that maximum is exactly the order-p truncation.
    """
    if precision > p:
        raise ValueError(f"2F1 precision must be <= p (got N={precision}, p={p})")
    aa = inv_mod(3, p)
    bb = 2 * aa % p
    out = [1] + [0] * (precision - 1)
    for k in range(1, precision):
        num = (aa + k - 1) * (bb + k - 1) % p
        den = k * k % p  # (c + k - 1) * k with c = 1
        out[k] = out[k - 1] * num % p * inv_mod(den, p) % p
    return FpSeries(out, p, _trusted=True)
