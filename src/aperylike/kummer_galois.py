"""Galois degrees of the Kummer extensions generated by truncated series.

For a p-Lucas series f the relation f = A_p * f^p makes f^(p-1) = 1/A_p,
so F_p(t, f)/F_p(t) is Kummer and its degree is the order of the class of
A_p in F_p(t)^x modulo (p-1)-th powers.  That order is computed here from
the squarefree multiplicities and the leading constant alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .errors import ReconstructionError
from .families import FAMILIES, get_family
from .finite_field import Prime, inv_mod, legendre, mult_order
from .fp_poly import FpPoly, SquareCofactor, gcd
from .fp_series import FpSeries
from .sequences import SequenceSpec, coefficients_mod_p, truncation_poly

LABEL_S = "S"
LABEL_FULL = "FULL"
LABEL_OTHER = "OTHER"


@dataclass(frozen=True)
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
        p = a.p
        if parts:
            e_gcd = 0
            for _, e in parts:
                e_gcd = math.gcd(e_gcd, e)
            g = math.gcd(p - 1, e_gcd)
        else:
            g = p - 1
        m = math.gcd(g, (p - 1) // mult_order(a.lc(), p))
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class KummerReport:
    seq: str
    p: int
    ok: bool
    mismatch_index: int | None = None

    def __bool__(self):
        return self.ok


def verify_kummer_relation(seq: SequenceSpec, p: int, precision: int | None = None) -> KummerReport:
    """Check f = A_p * f(t^p) coefficientwise to the given precision.

    Frobenius turns f^p into f(t^p) exactly in characteristic p, so the
    check is pure convolution.  Default precision is 3p, covering indices
    whose base-p expansions have two digits.
    """
    n = 3 * p if precision is None else precision
    cs = coefficients_mod_p(seq, n, p)
    a_p = cs[:p]
    frob = [0] * n
    for i in range(0, n, p):
        frob[i] = cs[i // p]
    rhs = kernels.series_mul(a_p, frob, n, p)
    for i in range(n):
        if cs[i] != rhs[i]:
            return KummerReport(seq.key, p, False, i)
    return KummerReport(seq.key, p, True)


# -- rational reconstruction ---------------------------------------------------------


def rational_kummer_cofactor(f: FpSeries, degree_bound: int) -> tuple[FpPoly, FpPoly]:
    """Recover A(t) = num/den with f = A * f(t^p), for deg num, deg den <= D.

    Solves the homogeneous Pade system den * q = num mod x^(2D+2) for
    q = f / f(t^p) by Gaussian elimination and verifies the candidate against
    every further known coefficient of q.  Raises ReconstructionError when no
    candidate at this bound survives (callers may retry with a larger bound).
    """
    p = f.p
    d = degree_bound
    n = f.precision
    if f.coeffs[0] == 0:
        raise ValueError("series must have nonzero constant term")
    if n < 2 * d + 2:
        raise ValueError(f"precision {n} too small for degree bound {d} (need {2 * d + 2})")
    q = (f * f.substitute_power(p).inv()).coeffs

    # rows i = d+1 .. 2d+1: sum_j den_j q_(i-j) = 0, unknowns den_0..den_d
    rows = [[q[i - j] if i >= j else 0 for j in range(d + 1)] for i in range(d + 1, 2 * d + 2)]
    den = _kernel_vector(rows, p)
    num = kernels.series_mul(list(q), den, d + 1, p)
    den_poly = FpPoly(den, p)
    num_poly = FpPoly(num, p)
    if not den_poly or den_poly.eval(0) == 0:
        raise ReconstructionError(f"no reconstruction with unit denominator at bound {d}")
    # normalize den(0) = 1
    scale = inv_mod(den_poly.eval(0), p)
    den_poly = den_poly.scale(scale)
    num_poly = num_poly.scale(scale)
    # verify against all known coefficients of q
    check = kernels.series_mul(list(q), list(den_poly.coeffs), n, p)
    for i in range(n):
        if check[i] != (num_poly[i] if i < d + 1 else 0):
            raise ReconstructionError(
                f"candidate at bound {d} fails verification at order {i}")
    return num_poly, den_poly


def _kernel_vector(rows: list[list[int]], p: int) -> list[int]:
    """A nonzero kernel vector of the (m x w) system over F_p, deterministic.

    The last non-pivot column is set to 1 and the rest back-substituted.
    """
    w = len(rows[0]) if rows else 1
    mat = [row[:] for row in rows]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(w):
        sel = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = inv_mod(mat[r][col], p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(x - c * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append((r, col))
        r += 1
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(w) if c not in pivot_cols]
    if not free:
        raise ReconstructionError("Pade system has no nonzero kernel")
    free_col = free[-1]
    vec = [0] * w
    vec[free_col] = 1
    for row, col in pivots:
        vec[col] = (-mat[row][free_col]) % p
    return vec


# -- per-prime records -----------------------------------------------------------


@dataclass(frozen=True)
class TruncationRecord:
    """One (sequence, prime) row: truncation, factorization, Galois data."""

    seq: str
    p: int
    trunc: FpPoly
    factorization: SquareCofactor
    galois: GaloisResult
    predicted_label: str | None = None
    predicted_cofactor: FpPoly | None = None

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
        """Rebuild a record from its cache form; raises ValueError unless p is a
        prime >= 5, 1 <= c < p, P and B are monic, c*P*B^2 == A, P is
        squarefree and degree divides p-1.  Together the checks on c, P, B and
        the re-expansion make A nonzero with leading coefficient c."""
        p = Prime(data["p"]).value
        c = int(data["c"])
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
        degree = int(data["degree"])
        if degree <= 0 or (p - 1) % degree:
            raise ValueError(f"degree {degree} is not a positive divisor of p-1={p - 1}")
        gal = GaloisResult(p=p, degree=degree, kummer_exponent=(p - 1) // degree)
        rec = cls(seq=data["seq"], p=p, trunc=trunc, factorization=fact, galois=gal)
        return _with_prediction(rec)


def compute_record(seq: SequenceSpec, p: int) -> TruncationRecord:
    a_p = truncation_poly(seq, p)
    parts = a_p.squarefree_decomposition()  # shared by both results
    fact = SquareCofactor.from_parts(a_p, parts)
    gal = GaloisResult.from_parts(a_p, parts)
    rec = TruncationRecord(seq=seq.key, p=p, trunc=a_p, factorization=fact, galois=gal)
    return _with_prediction(rec)


def _with_prediction(rec: TruncationRecord) -> TruncationRecord:
    if rec.seq not in FAMILIES:
        return rec
    return TruncationRecord(
        seq=rec.seq, p=rec.p, trunc=rec.trunc, factorization=rec.factorization,
        galois=rec.galois,
        predicted_label=predicted_group(rec.seq, rec.p),
        predicted_cofactor=predicted_cofactor(rec.seq, rec.p),
    )
