"""Galois degrees of the Kummer extensions generated by truncated series.

For a p-Lucas series f the relation f = A_p * f^p makes f^(p-1) = 1/A_p,
so F_p(t, f)/F_p(t) is Kummer and its degree is the order of the class of
A_p in F_p(t)^x modulo (p-1)-th powers.  That order depends only on the
leading constant and on the gcd of the multiplicities of A_p.

``compute_record`` reads both, and the factorization A_p = c * P * B^2, off
the squarefree decomposition.  ``certify`` proves a guessed cofactor P
instead: B is a series square root checked by re-expansion, and the
multiplicity gcd follows from gcd(P, B) = 1 when P != 1, and from witness
points showing B is no l-th power when P = 1.
"""
from __future__ import annotations

import math

from . import kernels
from ._record import record
from .errors import ReconstructionError
from .families import FAMILIES, get_family
from .finite_field import Prime, factorize, inv_mod, legendre, mult_order
from .fp_poly import FpPoly, SquareCofactor, gcd
from .fp_series import FpSeries
from .sequences import SequenceSpec, coefficients_mod_p, truncation_poly

LABEL_S = "S"
LABEL_FULL = "FULL"
LABEL_OTHER = "OTHER"


@record
class GaloisResult:
    """Degree data for F_p(t, f)/F_p(t) with f^(p-1) = 1/A."""

    p: int
    degree: int
    kummer_exponent: int

    @property
    def label(self) -> str:
        if self.degree == (self.p - 1) // 2:
            return LABEL_S
        if self.degree == self.p - 1:
            return LABEL_FULL
        return LABEL_OTHER

    @classmethod
    def from_parts(cls, a: FpPoly, parts: list[tuple[FpPoly, int]]) -> "GaloisResult":
        """The Kummer class order of a given its squarefree decomposition."""
        e_gcd = 0
        for _, e in parts:
            e_gcd = math.gcd(e_gcd, e)
        return cls.from_exponents(a.p, a.lc(), e_gcd)

    @classmethod
    def from_exponents(cls, p: int, lc: int, e_gcd: int) -> "GaloisResult":
        """The Kummer class order of a polynomial with leading coefficient lc
        whose multiplicities have gcd e_gcd (0 for a constant, so that
        gcd(p-1, 0) = p-1 lets the constant alone decide)."""
        m = math.gcd(p - 1, e_gcd, (p - 1) // mult_order(lc, p))
        return cls(p=p, degree=(p - 1) // m, kummer_exponent=m)

    def describe(self) -> str:
        if self.label == LABEL_OTHER:
            return f"OTHER({self.degree})"
        return self.label


def galois_degree(a: FpPoly) -> GaloisResult:
    """Order of the Kummer class of a nonzero polynomial A over F_p(t).

    The largest divisor m of p-1 with A an m-th power is
    gcd(gcd(p-1, gcd_i e_i), (p-1)/ord(lc)); for constant A the
    multiplicity gcd is taken to be p-1 so the constant alone decides.
    """
    if not a:
        raise ZeroDivisionError("Kummer class of the zero polynomial")
    return GaloisResult.from_parts(a, a.squarefree_decomposition())


def predicted_group(family: str, p: int) -> str:
    """Congruence-class prediction of the Galois label for a built-in family."""
    spec = get_family(family)
    return LABEL_S if spec.predicts_square(p) else LABEL_FULL


def predicted_cofactor(family: str, p: int) -> FpPoly:
    """Predicted monic square cofactor of the truncation at p.

    Returns 1 in the square classes and the family's quadratic otherwise.
    The quadratics are the ones validated against computed factorizations
    for the catalog sign conventions; for the alternating Domb catalog the
    middle coefficient is +20.  The unsigned variant flips it to
    64t^2-20t+1; acceptance criterion 3 (test_c03_domb_reproduction)
    checks that constant on the unsigned truncation.
    """
    spec = get_family(family)
    if spec.predicts_square(p):
        return FpPoly.one(p)
    return spec.cofactor_poly(p).monic()


# -- involution constants ---------------------------------------------------------

CASE_NONE = "NONE"
CASE_ONE = "ONE"
CASE_BOTH = "BOTH"


@record
class InvolutionReport:
    """Which of u = +/- u0 extend the fractional involution to an involution
    of the square-root field, by pure quadratic-character arithmetic."""

    family: str
    p: int
    case: str
    admissible_signs: tuple[int, ...]
    fixing_admissible: bool


def involution_analysis(family: str, p: int) -> InvolutionReport:
    spec = get_family(family)
    need_square = spec.u_required_square(p)
    u0 = spec.u_num * inv_mod(spec.u_den, p) % p
    admissible = tuple(
        sign for sign in (1, -1)
        if (legendre(sign * u0, p) == 1) == need_square
    )
    case = (CASE_NONE, CASE_ONE, CASE_BOTH)[len(admissible)]
    return InvolutionReport(
        family=family, p=p, case=case, admissible_signs=admissible,
        fixing_admissible=spec.fixing_sign in admissible,
    )


def involution_constant_case(family: str, p: int) -> str:
    """NONE / ONE / BOTH admissible involution constants at p."""
    return involution_analysis(family, p).case


# -- the Kummer congruence ---------------------------------------------------------


@record
class KummerReport:
    seq: str
    p: int
    ok: bool
    mismatch_index: int | None = None

    def __bool__(self):
        return self.ok


def kummer_mismatch(cs, p: int) -> int | None:
    """The first index i with cs[i] != (A * f(t^p))[i], or None, for the
    series f with coefficients cs and A its first p coefficients.

    Frobenius turns f^p into f(t^p) exactly in characteristic p, so
    f = A * f^p is one convolution.
    """
    n = len(cs)
    frob = [0] * n
    for i in range(0, n, p):
        frob[i] = cs[i // p]
    rhs = kernels.series_mul(list(cs[:p]), frob, n, p)
    return next((i for i in range(n) if cs[i] != rhs[i]), None)


def verify_kummer_relation(seq: SequenceSpec, p: int, precision: int | None = None) -> KummerReport:
    """Check f = A_p * f(t^p) coefficientwise to the given precision, by
    ``kummer_mismatch``.  Default precision is 3p, covering indices whose
    base-p expansions have two digits.
    """
    n = 3 * p if precision is None else precision
    i = kummer_mismatch(coefficients_mod_p(seq, n, p), p)
    return KummerReport(seq.key, p, i is None, i)


# -- rational reconstruction ---------------------------------------------------------


def rational_kummer_cofactor(f: FpSeries, degree_bound: int) -> tuple[FpPoly, FpPoly]:
    """Recover A(t) = num/den with f = A * f(t^p), for deg num, deg den <= D.

    With q = f / f(t^p), den * q = num mod x^(2D+2) is rational
    reconstruction, which the extended Euclid of (x^(2D+2), q) solves: its
    first remainder of degree <= D is num and the matching Bezout cofactor
    of q is den (von zur Gathen-Gerhard, Modern Computer Algebra, 5.7-5.9),
    both from one half-gcd ``kernels._hgcd``.  At every bound at or above
    the degrees of A that pair is the reduced fraction (ibid., Thm 5.16),
    normalized to den(0) = 1; it is checked against every further known
    coefficient of q.  Raises ReconstructionError when no candidate at this
    bound survives (callers may retry with a larger bound).
    """
    p = f.p
    d = degree_bound
    n = f.precision
    if f.coeffs[0] == 0:
        raise ValueError("series must have nonzero constant term")
    if n < 2 * d + 2:
        raise ValueError(f"precision {n} too small for degree bound {d} (need {2 * d + 2})")
    q = (f * f.substitute_power(p).inv()).coeffs
    # [x^(2D+2), q] -> [r_prev, num] with deg num <= D < deg r_prev
    m, _, num = kernels._hgcd([0] * (2 * d + 2) + [1], kernels._trim(list(q[:2 * d + 2])), p)
    den_poly = FpPoly(m[3], p, _trusted=True)
    if den_poly[0] == 0 or den_poly.degree > d:
        raise ReconstructionError(f"no reconstruction with unit denominator at bound {d}")
    # normalize den(0) = 1
    scale = inv_mod(den_poly[0], p)
    den_poly = den_poly.scale(scale)
    num_poly = FpPoly(num, p, _trusted=True).scale(scale)
    # verify against all known coefficients of q
    check = kernels.series_mul(list(q), list(den_poly.coeffs), n, p)
    for i in range(n):
        if check[i] != num_poly[i]:
            raise ReconstructionError(
                f"candidate at bound {d} fails verification at order {i}")
    return num_poly, den_poly


# -- per-prime records -----------------------------------------------------------


@record
class TruncationRecord:
    """One (sequence, prime) row: truncation, factorization, Galois data."""

    seq: str
    p: int
    trunc: FpPoly
    factorization: SquareCofactor
    galois: GaloisResult

    @property
    def predicted_label(self) -> str | None:
        """The family's predicted Galois label, or None off the catalog families."""
        return predicted_group(self.seq, self.p) if self.seq in FAMILIES else None

    @property
    def predicted_cofactor(self) -> FpPoly | None:
        """The family's predicted monic cofactor, or None off the catalog families."""
        return predicted_cofactor(self.seq, self.p) if self.seq in FAMILIES else None

    @property
    def matches_prediction(self) -> bool | None:
        if self.predicted_label is None:
            return None
        return (self.galois.label == self.predicted_label
                and self.factorization.cofactor == self.predicted_cofactor)

    def to_json_dict(self) -> dict:
        return {
            "seq": self.seq,
            "p": self.p,
            "A": list(self.trunc.coeffs),
            "c": self.factorization.c,
            "P": list(self.factorization.cofactor.coeffs),
            "B": list(self.factorization.root.coeffs),
            "degree": self.galois.degree,
            "label": self.galois.label,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TruncationRecord":
        """Rebuild a record from its cache form; raises ValueError unless p, c,
        degree and every coefficient of A, P and B are ints (not floats,
        strings or bools), p is a prime >= 5, 1 <= c < p, P and B are monic,
        c*P*B^2 == A, P is squarefree and degree divides p-1.  Together the
        checks on c, P, B and the re-expansion make A nonzero with leading
        coefficient c."""
        for key in ("p", "c", "degree"):
            if type(data[key]) is not int:
                raise ValueError(f"{key} = {data[key]!r} is not an integer")
        for key in ("A", "P", "B"):
            if any(type(x) is not int for x in data[key]):
                raise ValueError(f"{key} has a coefficient that is not an integer")
        p = Prime(data["p"]).value
        c = data["c"]
        if not 1 <= c < p:
            raise ValueError(f"c = {c} is not in 1..{p - 1}")
        trunc = FpPoly(data["A"], p)
        fact = SquareCofactor(c, FpPoly(data["P"], p), FpPoly(data["B"], p))
        if fact.cofactor.lc() != 1 or fact.root.lc() != 1:
            raise ValueError("P and B must be monic")
        if fact.expand() != trunc:
            raise ValueError("c*P*B^2 does not re-expand to A")
        if gcd(fact.cofactor, fact.cofactor.derivative()).degree != 0:
            raise ValueError("P is not squarefree")
        degree = data["degree"]
        if degree <= 0 or (p - 1) % degree:
            raise ValueError(f"degree {degree} is not a positive divisor of p-1={p - 1}")
        gal = GaloisResult(p=p, degree=degree, kummer_exponent=(p - 1) // degree)
        return cls(seq=data["seq"], p=p, trunc=trunc, factorization=fact, galois=gal)


# The Legendre pre-filter of ``certify`` reads A at x = 1..FILTER_POINTS, and
# the witnesses of its P = 1 degree are sought at x = 1..WITNESS_POINTS
# (points >= p left out).  Neither count can change a result: a candidate
# that passes the filter is still checked exactly, and a missing witness
# sends the prime to the decomposition.  The roots lean towards residues at
# small x: over the 499 P = 1 records of apery below 3000 and domb, az and
# a005260 below 1500, up to 20 points were needed (domb at 193, apery at
# 1801), and a failed search costs far less than the decomposition.
FILTER_POINTS = 4
WITNESS_POINTS = 64


def certify(a: FpPoly, cofactor: FpPoly,
            a_values: list[int] | None = None) -> tuple[SquareCofactor, GaloisResult] | None:
    """The factorization and Kummer degree of A proved from a guessed cofactor
    P, without a squarefree decomposition; None when the guess is wrong or
    cannot be proved this way.

    If A = c*P*B^2 with P monic squarefree and B monic, then P is the product
    of the factors of odd multiplicity of A and B is fixed, so a candidate
    that passes the exact check is the one ``SquareCofactor.from_parts``
    returns.  With d = (deg A - deg P)/2 a positive integer and A(0), P(0)
    nonzero, P must divide A exactly, and B is the monic normalization of
    the series square root of Q/Q(0), Q = A/P, to d+1 terms; c*B^2 == Q,
    that is c*P*B^2 == A, is checked exactly.
    The multiplicity gcd that ``GaloisResult.from_parts`` needs is then
    1 when P != 1 is squarefree and prime to B.  When P = 1 it is 2*e with e
    the multiplicity gcd of B; a point x with B(x) != 0 and
    B(x)^((p-1)/l) != 1 shows B is no l-th power, so l does not divide e,
    and such witnesses for every prime l | (p-1)/2 give gcd(p-1, 2e) = 2.

    Before any division or series work a point x with A(x)*c*P(x) a
    non-residue rejects the candidate, since A(x)/(c*P(x)) = B(x)^2.
    ``a_values`` holds A at the first filter points; certify appends the
    ones it evaluates, so a caller that passes one list for every candidate
    at a prime evaluates A once.
    """
    p = a.p
    if not a or a[0] == 0 or not cofactor or cofactor[0] == 0:
        return None
    P = cofactor.monic()
    twice_d = a.degree - P.degree
    if twice_d <= 0 or twice_d % 2:
        return None
    c = a.lc()
    values = [] if a_values is None else a_values
    for x in range(1, min(FILTER_POINTS, p - 1) + 1):
        if len(values) < x:
            values.append(a.eval(x))
        if legendre(values[x - 1] * c * P.eval(x), p) < 0:
            return None
    q = a
    if P.degree > 0:
        if gcd(P, P.derivative()).degree > 0:
            return None
        q, r = a.divrem(P)
        if r:
            return None
    h = FpSeries.from_poly(q.scale(inv_mod(q[0], p)), twice_d // 2 + 1)
    root = FpPoly(h.sqrt().coeffs, p).monic()
    if (root * root).scale(c) != q:
        return None
    fact = SquareCofactor(c, P, root)
    if P.degree > 0:
        if gcd(P, root).degree > 0:
            return None
        return fact, GaloisResult.from_exponents(p, c, 1)
    missing = list(factorize((p - 1) // 2))
    for x in range(1, min(WITNESS_POINTS, p - 1) + 1):
        if not missing:
            break
        bx = root.eval(x)
        if bx:
            missing = [l for l in missing if pow(bx, (p - 1) // l, p) == 1]
    if missing:
        return None
    return fact, GaloisResult.from_exponents(p, c, 2)


def compute_record(seq: SequenceSpec, p: int) -> TruncationRecord:
    a_p = truncation_poly(seq, p)
    parts = a_p.squarefree_decomposition()  # shared by both results
    fact = SquareCofactor.from_parts(a_p, parts)
    gal = GaloisResult.from_parts(a_p, parts)
    return TruncationRecord(seq=seq.key, p=p, trunc=a_p, factorization=fact, galois=gal)
