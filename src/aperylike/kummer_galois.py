"""Galois degrees of the Kummer extensions generated by truncated series.

For a p-Lucas series f the relation f = A_p * f^p makes f^(p-1) = 1/A_p,
so F_p(t, f)/F_p(t) is Kummer and its degree is the order of the class of
A_p in F_p(t)^x modulo (p-1)-th powers.  That order depends only on the
leading constant and on the gcd of the multiplicities of A_p.

``compute_record`` guesses the cofactor P of A_p = c * P * B^2, ``certify``
only proves a guess, and the squarefree decomposition gives both when no
guess is proved.  ``TruncationRecord.from_json_dict`` judges a cache line
against its own sequence: its A must be the truncation, and its degree is
proved the same way (``_proved_degree``).
"""
from __future__ import annotations

import math

from ._record import record
from .families import FAMILIES, get_family, in_classes
from .finite_field import check_prime, factorize, inv_mod, legendre, mult_order
from .fp_poly import FpPoly, SquareCofactor, gcd
from .fp_series import FpSeries
from .sequences import (FrobeniusReport, SequenceSpec, coefficients_mod_p, kummer_mismatch,
                        truncation_poly)

LABEL_S = "S"
LABEL_FULL = "FULL"
LABEL_OTHER = "OTHER"


@record
class GaloisResult:
    """Degree data for F_p(t, f)/F_p(t) with f^(p-1) = 1/A."""

    p: int
    degree: int

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
        return cls(p=p, degree=(p - 1) // m)

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
    return LABEL_S if in_classes(get_family(family).square_classes, p) else LABEL_FULL


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
    if in_classes(spec.square_classes, p):
        return FpPoly.one(p)
    return FpPoly(spec.cofactor_quad, p).monic()


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
    admissible_signs: tuple[int, ...]

    @property
    def case(self) -> str:
        return (CASE_NONE, CASE_ONE, CASE_BOTH)[len(self.admissible_signs)]

    @property
    def fixing_admissible(self) -> bool:
        return get_family(self.family).fixing_sign in self.admissible_signs


def involution_analysis(family: str, p: int) -> InvolutionReport:
    """The involution constants admissible at p; ``case`` names how many
    there are (NONE / ONE / BOTH)."""
    spec = get_family(family)
    need_square = in_classes(spec.u_square_classes, p)
    u0 = spec.u_num * inv_mod(spec.u_den, p) % p
    admissible = tuple(
        sign for sign in (1, -1)
        if (legendre(sign * u0, p) == 1) == need_square
    )
    return InvolutionReport(family=family, p=p, admissible_signs=admissible)


# -- the Kummer congruence ---------------------------------------------------------


def verify_kummer_relation(seq: SequenceSpec, p: int,
                           precision: int | None = None) -> FrobeniusReport:
    """Check f = A_p * f(t^p) coefficientwise to the given precision, by
    ``kummer_mismatch``.  Default precision is 3p, covering indices whose
    base-p expansions have two digits.  A precision of at most p raises
    ValueError: up to index p-1 the relation reads A_p = A_p * a_0.
    """
    n = 3 * p if precision is None else precision
    if n <= p:
        raise ValueError(f"precision {n} <= p={p} leaves no index of f(t^p) to check")
    return FrobeniusReport(seq.key, p, kummer_mismatch(coefficients_mod_p(seq, n, p), p))


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
    def from_json_dict(cls, data: dict, seq: SequenceSpec) -> "TruncationRecord":
        """The record of ``seq`` from its cache form; raises ValueError unless
        the line is filed under ``seq.key``, p, c, degree and the coefficients
        of A, P and B are ints (not floats, strings or bools), p is a prime
        >= 5, 1 <= c < p, P and B are monic, A is the coefficient list of
        ``truncation_poly(seq, p)`` (compared, never parsed), c*P*B^2 == A, P
        is squarefree and degree is the degree of A, proved by
        ``_proved_degree`` or else by the decomposition."""
        if data["seq"] != seq.key:
            raise ValueError(f"filed under {data['seq']!r}, not {seq.key!r}")
        for key in ("p", "c", "degree"):
            if type(data[key]) is not int:
                raise ValueError(f"{key} = {data[key]!r} is not an integer")
        for key in ("A", "P", "B"):
            if any(type(x) is not int for x in data[key]):
                raise ValueError(f"{key} has a coefficient that is not an integer")
        p = check_prime(data["p"])
        c = data["c"]
        if not 1 <= c < p:
            raise ValueError(f"c = {c} is not in 1..{p - 1}")
        fact = SquareCofactor(c, FpPoly(data["P"], p), FpPoly(data["B"], p))
        if fact.cofactor.lc() != 1 or fact.root.lc() != 1:
            raise ValueError("P and B must be monic")
        trunc = truncation_poly(seq, p)
        if data["A"] != list(trunc.coeffs):
            raise ValueError(f"A is not the truncation of {seq.key} at p={p}")
        if fact.expand() != trunc:
            raise ValueError("c*P*B^2 does not re-expand to A")
        if gcd(fact.cofactor, fact.cofactor.derivative()).degree != 0:
            raise ValueError("P is not squarefree")
        gal = _proved_degree(fact) or galois_degree(trunc)
        if data["degree"] != gal.degree:
            raise ValueError(f"degree {data['degree']} is not the degree {gal.degree} of A")
        return cls(seq=seq.key, p=p, trunc=trunc, factorization=fact, galois=gal)


# The square test of ``compute_record`` reads c*A at x = 1..FILTER_POINTS,
# and the witnesses of a P = 1 degree are sought at x = 1..WITNESS_POINTS
# (points >= p left out).  Neither count can change a result: a guess that
# passes the test is still proved exactly, and a missing witness sends the
# prime to the decomposition.  The roots lean towards residues at small x:
# over the 499 P = 1 records of apery below 3000 and domb, az and a005260
# below 1500, up to 20 points were needed (domb at 193, apery at 1801), and
# a failed search costs far less than the decomposition.
FILTER_POINTS = 4
WITNESS_POINTS = 64


def certify(a: FpPoly, cofactor: FpPoly) -> tuple[SquareCofactor, GaloisResult] | None:
    """The factorization and Kummer degree of A proved from a guessed cofactor
    P, without a squarefree decomposition; None when the guess is wrong or
    cannot be proved this way.

    If A = c*P*B^2 with P monic squarefree and B monic, then P is the product
    of the factors of odd multiplicity of A and B is fixed, so a candidate
    that passes the exact check is the one ``SquareCofactor.from_parts``
    returns.  With d = (deg A - deg P)/2 a positive integer and A(0), P(0)
    nonzero, P must be squarefree and divide A exactly, and B is the monic
    normalization of the series square root of Q/Q(0), Q = A/P, to d+1
    terms; c*B^2 == Q, that is c*P*B^2 == A, is checked exactly.  The
    degree is then proved by ``_proved_degree``, and a candidate whose
    degree it cannot prove is rejected too.  What to guess is the caller's
    choice.
    """
    p = a.p
    if not a or a[0] == 0 or not cofactor or cofactor[0] == 0:
        return None
    P = cofactor.monic()
    twice_d = a.degree - P.degree
    if twice_d <= 0 or twice_d % 2:
        return None
    c = a.lc()
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
    gal = _proved_degree(fact)
    return None if gal is None else (fact, gal)


def _proved_degree(fact: SquareCofactor) -> GaloisResult | None:
    """The Kummer degree of A = c*P*B^2, with P monic squarefree and B monic,
    proved without a squarefree decomposition; None when it cannot be
    proved this way.

    The multiplicity gcd that ``GaloisResult.from_parts`` needs is 1 when
    P != 1 is prime to B.  When P = 1 it is 2*e with e the multiplicity gcd
    of B; a point x with B(x) != 0 and B(x)^((p-1)/l) != 1 shows B is no
    l-th power, so l does not divide e, and such witnesses for every prime
    l | (p-1)/2 give gcd(p-1, 2e) = 2.
    """
    P, root = fact.cofactor, fact.root
    p = P.p
    if P.degree > 0:
        return None if gcd(P, root).degree > 0 else GaloisResult.from_exponents(p, fact.c, 1)
    missing = list(factorize((p - 1) // 2))
    for x in range(1, min(WITNESS_POINTS, p - 1) + 1):
        if not missing:
            break
        bx = root.eval(x)
        if bx:
            missing = [l for l in missing if pow(bx, (p - 1) // l, p) == 1]
    return None if missing else GaloisResult.from_exponents(p, fact.c, 2)


def compute_record(seq: SequenceSpec, p: int) -> TruncationRecord:
    """The record of ``seq`` at p; ValueError when the truncation A is zero.

    The truncation A is certified with the cofactor P = 1 unless c*A(x),
    which is (c*B(x))^2 if P = 1, is a non-residue at some x in
    1..FILTER_POINTS; then with gcd(A, L) when ``seq.lead`` = L is set and
    the gcd has positive degree (a wrong one fails the exact division in
    O(p)).  If neither is proved, one squarefree decomposition gives both
    the factorization and the degree.  A certified factorization is the one
    the decomposition gives, so the guesses change only the time a record
    takes, never the record.

    Why gcd(A, L) is often P: f = A * f(t^p), and f(t^p) has zero
    derivative in characteristic p, so A is a polynomial solution mod p of
    the differential operator of the sequence's recurrence, whose leading
    polynomial is L.  Over the primes 7..1000, P != 1 is L for eight
    catalog rows (Apery, Domb and Almkvist-Zudilin among them), and L or
    one linear factor of L for a181418 and a005260; where gcd(A, L) is not
    P (Franel's A is squarefree) the exact checks of ``certify`` reject it.

    L is found once where the sequence is built, over the integers, never
    per prime and never from a ``FamilySpec``; and the record does not
    depend on what is guessed.  So ``--check-theorem`` still compares a
    proved factorization with the family's prediction, two independent
    computations.
    """
    a = truncation_poly(seq, p)
    if not a:
        raise ValueError(f"the truncation of {seq.key} at p={p} is zero")
    points = range(1, min(FILTER_POINTS, p - 1) + 1)
    square = all(legendre(a.lc() * a.eval(x), p) >= 0 for x in points)
    found = certify(a, FpPoly.one(p)) if square else None
    if not found and seq.lead is not None:
        guess = gcd(a, FpPoly(seq.lead, p))
        if guess.degree > 0:
            found = certify(a, guess)
    if not found:
        parts = a.squarefree_decomposition()  # shared by both results
        found = SquareCofactor.from_parts(a, parts), GaloisResult.from_parts(a, parts)
    return TruncationRecord(seq.key, p, a, *found)
