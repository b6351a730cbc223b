"""Verifiers for the analytic and algebraic identities tying the three
families to the Franel square: the second-order ODE, the fractional-map
twist of H, the endpoint constant, the Gauss-series link, and the
substitution relations f(t(x)) = rho(x) h(x)^2.

Everything here is a check: the identities hold for every prime p >= 5,
and a failure raises IdentityViolationError (or returns False for the
boolean verifiers) rather than being an interesting outcome.
"""
from __future__ import annotations

from ._record import record
from .errors import IdentityViolationError
from .families import get_family, in_classes
from .fp_poly import FpPoly
from .fp_series import FpSeries, expand_rational, hypergeometric_2f1
from .sequences import CATALOG, coefficients_mod_p, kummer_mismatch, truncation_poly


def franel_truncation(p: int) -> FpPoly:
    """H = sum_{n<p} (sum_k C(n,k)^3) x^n; degree p-1 with unit ends."""
    return truncation_poly(CATALOG["franel"], p)


def franel_series(p: int, precision: int) -> FpSeries:
    return FpSeries(coefficients_mod_p(CATALOG["franel"], precision, p), p, _trusted=True)


def verify_ode(p: int) -> bool:
    """x(x+1)(8x-1) H'' + (24x^2+14x-1) H' + (8x+2) H = 0 in F_p[x]."""
    h = franel_truncation(p)
    d1 = h.derivative()
    d2 = d1.derivative()
    lead = FpPoly((0, -1, 7, 8), p)       # x(x+1)(8x-1)
    mid = FpPoly((-1, 14, 24), p)
    last = FpPoly((2, 8), p)
    return not (lead * d2 + mid * d1 + last * h)


def verify_sigma_twist(family: str, p: int) -> int:
    """Sign s in H = s * sigma(H) * w^(p-1); checked against the family's
    ``twist_plus_classes`` (the mod-6 rule for apery and domb, +1 for az).

    The twist is H(num/den) cleared by den^(p-1).  The factor w is den up to
    a constant, whose (p-1)-th power is 1 by Fermat, so den^(p-1) = w^(p-1)
    and the cleared twist is sigma(H) * w^(p-1) itself.
    """
    spec = get_family(family)
    h = franel_truncation(p)
    twisted = h.substitute_rational(FpPoly(spec.sigma_num, p), FpPoly(spec.sigma_den, p))
    if twisted == h:
        sign = 1
    elif twisted == -h:
        sign = -1
    else:
        raise IdentityViolationError(
            f"{family} twist at p={p}: transform is not +/-H")
    if sign != (1 if in_classes(spec.twist_plus_classes, p) else -1):
        raise IdentityViolationError(
            f"{family} twist at p={p}: sign {sign} contradicts the mod-6 rule")
    return sign


def verify_endpoint_constant(p: int) -> int:
    """a = H(-1); equals 1 for p = 1 mod 6 and -1 for p = 5 mod 6."""
    a = franel_truncation(p).eval(p - 1)
    expected = 1 if p % 6 == 1 else p - 1
    if a != expected:
        raise IdentityViolationError(f"H(-1) = {a} at p={p}, expected {expected}")
    return a


def _link_series(p: int, precision: int) -> tuple[FpSeries, FpSeries]:
    """(y(x), lambda(x)) = (27x^2/(1-2x)^3, 1/(1-2x)) to the given precision."""
    den = FpPoly((1, -2), p)
    y = expand_rational(FpPoly((0, 0, 27), p), den ** 3, precision)
    lam = expand_rational(FpPoly.one(p), den, precision)
    return y, lam


def gauss_link(p: int, n: int) -> tuple[FpSeries, FpSeries]:
    """The pair (h, s) both checks of the Gauss link read: h the Franel
    series to max(n, 2p) coefficients, and s = lambda(x) * G(y(x)) to n,
    with G the Gauss series to min(n, p) coefficients (zero-padded to n) and
    y, lambda of ``_link_series``.  Below index p, h = H * h(x^p) holds for
    any h with h(0) = 1, so h runs to 2p or more, where the Frobenius half of
    ``verify_H_power_identity`` reads h[p + l] = h[1] * H[l] for every l < p.
    Each series is built once; a check at a lower precision reads prefixes."""
    y, lam = _link_series(p, n)
    big_g = FpSeries.from_poly(FpPoly(hypergeometric_2f1(min(n, p), p).coeffs, p), n)
    return franel_series(p, max(n, 2 * p)), lam * big_g.compose(y)


def verify_h_2f1_relation(p: int, precision: int = 100,
                          link: tuple[FpSeries, FpSeries] | None = None) -> bool:
    """h = lambda(x) * g(y(x)) mod x^N for the weight-(1/3,2/3;1) Gauss series g.

    The Gauss coefficients need k! invertible, so the working precision is
    capped at p - 1.  The first N coefficients of s in ``gauss_link`` are
    lambda * g(y) for the first N coefficients g of G, since
    G_k y^k = O(x^(2k)).  ``link`` may hold (h, s) at a higher precision.
    """
    n = min(precision, p - 1)
    h, s = link or gauss_link(p, n)
    return h.truncate(n) == s.truncate(n)


def verify_H_power_identity(p: int, precision: int | None = None,
                            link: tuple[FpSeries, FpSeries] | None = None) -> bool:
    """Two consequences of the Lucas structure of h, with N = max(p, precision)
    and H the first p coefficients of h:

    * H * h^(p-1) = 1, checked as h = H * h(x^p) (Frobenius: h^p = h(x^p))
      by ``sequences.kummer_mismatch`` on all of h, which ``gauss_link``
      builds to max(N, 2p) coefficients: below index p the relation holds
      for any h with h(0) = 1;
    * H = (1-2x)^(p-1) * G(y(x)) with G the order-p truncation of the Gauss
      series, checked as H = (1-2x^p) * s mod x^N for s of ``gauss_link``,
      since (1-2x)^(p-1) = (1-2x)^p * lambda and (1-2x)^p = 1-2x^p over F_p.

    ``link`` may hold (h, s) at a precision of N or more.
    """
    n = max(p, precision or 0)
    h, s = link or gauss_link(p, n)
    h, s = h.coeffs, s.truncate(n).coeffs
    if kummer_mismatch(h, p) is not None:
        return False
    rhs = tuple((c - 2 * s[i - p]) % p if i >= p else c for i, c in enumerate(s))
    return rhs == h[:p] + (0,) * (n - p)


@record
class SubstitutionResult:
    family: str
    p: int
    precision: int
    sign: int  # t(x) validated with this sign on the printed numerator


def verify_substitution(family: str, p: int, precision: int = 60) -> SubstitutionResult:
    """Check f(t(x)) = rho(x) h(x)^2 to order N.

    The signs of t(x) in the family's ``t_signs`` are tried in order and the
    validating one is reported; Domb tries both, and its alternating catalog
    convention validates +.
    Raises IdentityViolationError when no sign works.
    """
    spec = get_family(family)
    n = precision
    f = FpSeries(coefficients_mod_p(CATALOG[family], n, p), p, _trusted=True)
    h = franel_series(p, n)
    rhs = FpSeries.from_poly(FpPoly(spec.rho, p), n) * h * h
    t_series = expand_rational(FpPoly(spec.t_num, p), FpPoly(spec.t_den, p), n)
    for sign in spec.t_signs:
        inner = t_series if sign == 1 else -t_series
        if f.compose(inner) == rhs:
            return SubstitutionResult(family=family, p=p, precision=n, sign=sign)
    raise IdentityViolationError(
        f"{family} substitution at p={p}, N={n}: no sign of t(x) validates")


@record
class QuadraticCheck:
    family: str
    p: int
    x_solves: bool
    sigma_solves: bool
    # +1: discriminant equals the family cofactor quadratic; -1: equals its
    # t -> -t mirror; 0: neither
    disc_sign: int
    discriminant: FpPoly
    involution: bool  # sigma(sigma(x)) = x
    t_fixed: bool     # t(sigma(x)) = t(x)

    @property
    def ok(self) -> bool:
        return (self.x_solves and self.sigma_solves and self.disc_sign != 0
                and self.involution and self.t_fixed)


def _compose_sigma(num: FpPoly, den: FpPoly, sn: FpPoly, sd: FpPoly) -> tuple[FpPoly, FpPoly]:
    """(num/den)(sn/sd) as a fraction n2/d2 of polynomials in x, both parts
    cleared by sd^max(deg num, deg den)."""
    d = max(num.degree, den.degree)
    return num.substitute_rational(sn, sd, d), den.substitute_rational(sn, sd, d)


def verify_quadratic(family: str, p: int) -> QuadraticCheck:
    """Check that x and sigma(x) solve a(t) x^2 + b(t) x + c(t) = 0 under
    t = t(x), compare b^2 - 4ac with the family cofactor quadratic, and check
    that sigma is an involution fixing t(x).

    All identities are denominator-cleared polynomial identities in x.
    """
    spec = get_family(family)
    qa, qb, qc = (FpPoly(q, p) for q in (spec.quad_a, spec.quad_b, spec.quad_c))
    tn, td = FpPoly(spec.t_num, p), FpPoly(spec.t_den, p)
    d = max(int(q.degree) for q in (qa, qb, qc) if q)
    # t_den^d * q(t(x)) as polynomials in x
    ca, cb, cc = (q.substitute_rational(tn, td, d) for q in (qa, qb, qc))
    x = FpPoly((0, 1), p)
    x_solves = not (ca * x * x + cb * x + cc)

    sn, sd = FpPoly(spec.sigma_num, p), FpPoly(spec.sigma_den, p)
    sigma_solves = not (ca * sn * sn + cb * sn * sd + cc * sd * sd)
    n2, d2 = _compose_sigma(sn, sd, sn, sd)
    involution = n2 == x * d2
    n2, d2 = _compose_sigma(tn, td, sn, sd)
    t_fixed = n2 * td == d2 * tn  # t(sigma) = n2/d2 equals tn/td

    disc = qb * qb - 4 * (qa * qc)
    target = FpPoly(spec.cofactor_quad, p)
    mirror = FpPoly([c if i % 2 == 0 else -c for i, c in enumerate(spec.cofactor_quad)], p)
    if disc == target:
        disc_sign = 1
    elif disc == mirror:
        disc_sign = -1
    else:
        disc_sign = 0
    return QuadraticCheck(family=family, p=p, x_solves=x_solves,
                          sigma_solves=sigma_solves, disc_sign=disc_sign,
                          discriminant=disc, involution=involution, t_fixed=t_fixed)
