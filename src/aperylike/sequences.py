"""The sequence catalog: exact big-integer evaluators, three-term
recurrences, and ingestion of external coefficient files.

Each built-in sequence is written down once, plus one row of integer data:

* ``exact`` sums the defining formula with big-integer binomials and is the
  oracle;
* the catalog row stores the recurrence (n+1)^k u_{n+1} = b(n) u_n + c(n) u_{n-1},
  which ``Recurrence.terms_mod_p`` steps modulo p^N, one step per
  coefficient, and which serves every index of ``term_mod_p`` and
  ``coefficients_mod_p``.  Below p, N = 1 and (n+1)^k is a unit mod p; each
  multiple of p costs k digits of p-adic precision per factor p (see
  ``Recurrence.terms_mod_p``).

The generalized family ``gen:r,s`` has no recurrence and is summed in F_p with
digit-wise (Lucas) binomials.

Indices n >= p come from the integer recurrence mod p^N, never from the Lucas
product a_(np+l) = a_n a_l: ``verify_lucas_property`` and the Kummer check
test that product.
"""
from __future__ import annotations

import math
from functools import partial

from ._record import field, record
from .errors import BFileError
from .finite_field import digit_binomial
from .fp_poly import FpPoly


def _comb(m: int, k: int) -> int:
    """Binomial with the zero-outside-range convention, negative m included."""
    if m < 0 or k < 0 or k > m:
        return 0
    return math.comb(m, k)


# -- exact evaluators (big integers) ------------------------------------------

def apery_exact(n: int) -> int:
    return sum(math.comb(n, k) ** 2 * math.comb(n + k, n) ** 2 for k in range(n + 1))


def domb_exact(n: int) -> int:
    s = sum(math.comb(2 * k, k) * math.comb(2 * n - 2 * k, n - k) * math.comb(n, k) ** 2
            for k in range(n + 1))
    return -s if n % 2 else s


def az_exact(n: int) -> int:
    total = 0
    for k in range(n // 3 + 1):
        term = (3 ** (n - 3 * k) * math.comb(3 * k, k) * math.comb(2 * k, k)
                * math.comb(n, 3 * k) * math.comb(n + k, n))
        total += -term if (n - k) % 2 else term
    return total


def franel_exact(n: int) -> int:
    return sum(math.comb(n, k) ** 3 for k in range(n + 1))


def gen_apery_exact(r: int, s: int, n: int) -> int:
    return sum(math.comb(n, k) ** r * math.comb(n + k, n) ** s for k in range(n + 1))


def a229111_exact(n: int) -> int:
    total = 0
    for k in range(n // 5 + 1):
        term = math.comb(n, k) ** 3 * (_comb(4 * n - 5 * k - 1, 3 * n)
                                       + _comb(4 * n - 5 * k, 3 * n))
        total += -term if (n - k) % 2 else term
    return total


def a290575_exact(n: int) -> int:
    return sum(math.comb(n, k) ** 2 * _comb(2 * k, n) ** 2 for k in range(n + 1))


def a290576_exact(n: int) -> int:
    return sum(math.comb(n, k) ** 2 * math.comb(n, l) * math.comb(k, l) * _comb(k + l, n)
               for k in range(n + 1) for l in range(max(0, n - k), k + 1))


def a274786_exact(n: int) -> int:
    return math.comb(2 * n, n) * sum(math.comb(n, k) ** 2 * math.comb(n + k, k)
                                     for k in range(n + 1))


def a181418_exact(n: int) -> int:
    return math.comb(2 * n, n) * franel_exact(n)


def a183204_exact(n: int) -> int:
    return sum(math.comb(n, k) ** 2 * _comb(2 * k, n) * math.comb(k + n, n)
               for k in range(n + 1))


def a005260_exact(n: int) -> int:
    return sum(math.comb(n, k) ** 4 for k in range(n + 1))


# -- mod-p summand ---------------------------------------------------------------
#
# Only the generalized family, which has no recurrence, is summed in F_p.  The
# summand takes the per-prime digit-wise binomial ``binom = digit_binomial(p)``
# as an argument, so callers that evaluate many indices build it once.

def _gen_mod(r: int, s: int, n: int, p: int, binom) -> int:
    acc = 0
    for k in range(n + 1):
        acc += pow(binom(n, k), r, p) * pow(binom(n + k, n), s, p)
    return acc % p


# -- catalog -------------------------------------------------------------------

@record
class CoefficientTable:
    """Externally supplied exact coefficients, contiguous from index 0."""

    name: str
    values: tuple[int, ...]


@record
class Recurrence:
    """(n+1)^k u_{n+1} = b(n) u_n + c(n) u_{n-1} for n >= 1, with u_0 = 1.

    ``b`` and ``c`` are integer polynomials in n, coefficients ascending.
    """

    k: int
    u1: int
    b: tuple[int, ...]
    c: tuple[int, ...]

    def terms_mod_p(self, count: int, p: int) -> list[int]:
        """u_0, ..., u_(count-1) mod p, for any count.

        The integer recurrence is stepped modulo q = p^N with
        N = 1 + k v_p((count-1)!).  While n+1 is prime to p, (n+1)^k is a unit
        mod q.  At n+1 = m p^e with m prime to p, the numerator is divisible
        by p^(ke) because u_(n+1) is an integer; dividing it exactly leaves a
        value known to k e fewer digits, which is then multiplied by the
        inverse of m^k.  N covers every digit lost before index count, so the
        values are exact mod p.  For count <= p, N = 1.
        """
        k = self.k
        lost, m = 0, count - 1      # v_p((count-1)!), by Legendre's formula
        while m >= p:
            m //= p
            lost += m
        q = p ** (1 + k * lost)
        out = [1, self.u1 % q][:max(count, 0)]
        b, c = self.b[::-1], self.c[::-1]
        for n in range(1, count - 1):
            bn = cn = 0
            for x in b:
                bn = bn * n + x
            for x in c:
                cn = cn * n + x
            num = bn * out[n] + cn * out[n - 1]
            if (n + 1) % p:
                out.append(num * pow(n + 1, -k, q) % q)
                continue
            m, e = n + 1, 0
            while m % p == 0:
                m //= p
                e += 1
            out.append(num % q // p ** (k * e) * pow(m, -k, q) % q)
        return [u % p for u in out]


@record
class SequenceSpec:
    key: str
    description: str
    exact: object = None          # callable n -> int
    mod: object = None            # gen:r,s only: callable (n, p, digit_binomial(p)) -> int
    recurrence: Recurrence | None = None
    gen_params: tuple[int, int] | None = None
    level: int | None = None
    oeis: str | None = None
    table: CoefficientTable | None = field(default=None, compare=False)

    @property
    def is_external(self) -> bool:
        return self.table is not None


# (key, description, exact, (k, u1, b, c) of the recurrence, level, OEIS);
# every recurrence holds for all n <= 400 (a290576: n <= 204), see the tests.
_CATALOG_ROWS = [
    ("apery", "sum_k C(n,k)^2 C(n+k,n)^2", apery_exact,
     # b = (2n+1)(17n^2+17n+5), c = -n^3
     (3, 5, (5, 27, 51, 34), (0, 0, 0, -1)), None, "A005259"),
    ("domb", "(-1)^n sum_k C(2k,k) C(2n-2k,n-k) C(n,k)^2 (alternating Domb)",
     domb_exact,
     # b = -2(2n+1)(5n^2+5n+2), c = -64n^3
     (3, -4, (-4, -18, -30, -20), (0, 0, 0, -64)), None, "A002895 (signed)"),
    ("az", "sum_k (-1)^(n-k) 3^(n-3k) (3k)!/k!^3 C(n,3k) C(n+k,n)", az_exact,
     # b = -(2n+1)(7n^2+7n+3), c = -81n^3
     (3, -3, (-3, -13, -21, -14), (0, 0, 0, -81)), None, "A125143"),
    ("franel", "sum_k C(n,k)^3", franel_exact,
     # b = 7n^2+7n+2, c = 8n^2
     (2, 2, (2, 7, 7), (0, 0, 8)), None, "A000172"),
    ("a229111", "sum_k (-1)^(n-k) C(n,k)^3 (C(4n-5k-1,3n) + C(4n-5k,3n))",
     a229111_exact,
     # b = -(2n+1)(11n^2+11n+5), c = -125n^3
     (3, -5, (-5, -21, -33, -22), (0, 0, 0, -125)), None, "A229111"),
    ("a290575", "sum_k C(n,k)^2 C(2k,n)^2", a290575_exact,
     # b = 4(2n+1)(3n^2+3n+1), c = -16n^3
     (3, 4, (4, 20, 36, 24), (0, 0, 0, -16)), None, "A290575"),
    ("a290576", "sum_{k,l} C(n,k)^2 C(n,l) C(k,l) C(k+l,n)", a290576_exact,
     # b = 3(2n+1)(3n^2+3n+1), c = 27n^3
     (3, 3, (3, 15, 27, 18), (0, 0, 0, 27)), None, "A290576"),
    ("a274786", "C(2n,n) sum_k C(n,k)^2 C(n+k,k)", a274786_exact,
     # b = 2(2n+1)(11n^2+11n+3), c = 4n(2n-1)(2n+1)
     (3, 6, (6, 34, 66, 44), (0, -4, 0, 16)), 5, "A274786"),
    ("a181418", "C(2n,n) sum_k C(n,k)^3", a181418_exact,
     # b = 2(2n+1)(7n^2+7n+2), c = 32n(2n-1)(2n+1)
     (3, 4, (4, 22, 42, 28), (0, -32, 0, 128)), 6, "A181418"),
    ("a183204", "sum_k C(n,k)^2 C(2k,n) C(k+n,n)", a183204_exact,
     # b = (2n+1)(13n^2+13n+4), c = 3n(3n-1)(3n+1)
     (3, 4, (4, 21, 39, 26), (0, -3, 0, 27)), 7, "A183204"),
    ("a005260", "sum_k C(n,k)^4", a005260_exact,
     # b = 2(2n+1)(3n^2+3n+1), c = 4n(4n-1)(4n+1)
     (3, 2, (2, 10, 18, 12), (0, -4, 0, 64)), 10, "A005260"),
]

CATALOG: dict[str, SequenceSpec] = {
    key: SequenceSpec(key=key, description=desc, exact=exact,
                      recurrence=Recurrence(*rec), level=level, oeis=oeis)
    for key, desc, exact, rec, level, oeis in _CATALOG_ROWS
}


def generalized(r: int, s: int) -> SequenceSpec:
    """The two-exponent family sum_k C(n,k)^r C(n+k,n)^s."""
    if r < 0 or s < 0:
        raise ValueError("exponents must be nonnegative")
    return SequenceSpec(
        key=f"gen:{r},{s}",
        description=f"sum_k C(n,k)^{r} C(n+k,n)^{s}",
        exact=partial(gen_apery_exact, r, s),
        mod=partial(_gen_mod, r, s),
        gen_params=(r, s),
    )


def load_external(path, name: str | None = None) -> SequenceSpec:
    """Parse an OEIS-style b-file: one "index value" pair per line,
    '#' comments, indices contiguous from 0."""
    values: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise BFileError(f"expected 'index value', got {line!r}", lineno)
            try:
                idx, val = int(fields[0]), int(fields[1])
            except ValueError:
                raise BFileError(f"non-integer entry in {line!r}", lineno) from None
            if idx != len(values):
                raise BFileError(
                    f"index {idx} out of order (expected {len(values)})", lineno)
            values.append(val)
    if not values:
        raise BFileError("file contains no coefficients")
    stem = name if name is not None else _stem(path)
    return SequenceSpec(
        key=f"external:{stem}",
        description=f"external coefficient table ({len(values)} terms)",
        table=CoefficientTable(name=stem, values=tuple(values)),
    )


def _stem(path) -> str:
    s = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return s.rsplit(".", 1)[0] if "." in s else s


def get_sequence(key: str) -> SequenceSpec:
    """Resolve a sequence name: catalog key, ``gen:r,s``, or ``@/path/to/bfile``."""
    if key in CATALOG:
        return CATALOG[key]
    if key.startswith("gen:"):
        try:
            r, s = (int(x) for x in key[4:].split(","))
        except ValueError:
            raise ValueError(f"bad generalized spec {key!r}; use gen:r,s") from None
        return generalized(r, s)
    if key.startswith("@"):
        return load_external(key[1:])
    raise ValueError(f"unknown sequence {key!r}; see `catalog` for names")


# -- evaluation ------------------------------------------------------------------

def term_exact(seq: SequenceSpec, n: int):
    """Exact integer value; the oracle for every other evaluator."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if seq.is_external:
        if n >= len(seq.table.values):
            raise ValueError(
                f"{seq.key} has {len(seq.table.values)} terms; index {n} out of range")
        return seq.table.values[n]
    return seq.exact(n)


def term_mod_p(seq: SequenceSpec, n: int, p: int) -> int:
    """Value mod p, without the exact sum.

    A catalog row steps its recurrence mod p^N up to n (O(n)); ``gen:r,s``
    sums its formula with digit-wise binomials; an external table is reduced.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if seq.is_external:
        return term_exact(seq, n) % p
    if seq.recurrence is None:
        return seq.mod(n, p, digit_binomial(p))
    return seq.recurrence.terms_mod_p(n + 1, p)[n]


def coefficients_mod_p(seq: SequenceSpec, count: int, p: int) -> list[int]:
    """First ``count`` coefficients mod p.

    Every index of a catalog row, at and beyond p included, comes from its
    recurrence stepped mod p^N (``Recurrence.terms_mod_p``), never from the
    Lucas product; every index of ``gen:r,s`` from the digit-wise summand.
    """
    if seq.is_external:
        if count > len(seq.table.values):
            raise ValueError(
                f"{seq.key} has {len(seq.table.values)} terms; need {count}")
        return [v % p for v in seq.table.values[:count]]
    if seq.recurrence is None:
        binom = digit_binomial(p)
        return [seq.mod(n, p, binom) for n in range(count)]
    return seq.recurrence.terms_mod_p(count, p)


def truncation_poly(seq: SequenceSpec, p: int) -> FpPoly:
    """A_p = sum_{n<p} a_n t^n reduced mod p."""
    return FpPoly(coefficients_mod_p(seq, p, p), p)


@record
class LucasReport:
    seq: str
    p: int
    ok: bool
    counterexample: tuple[int, int] | None = None

    def __bool__(self):
        return self.ok


def verify_lucas_property(seq: SequenceSpec, p: int, digit_levels: int = 1) -> LucasReport:
    """Check a_(np+l) = a_n * a_l mod p digit by digit.

    Level 1 checks all n, l < p (indices below p^2); level 2 extends n to
    p^2 (indices below p^3).  Returns the first counterexample instead of
    raising, since external tables are allowed to fail.
    """
    if digit_levels < 1:
        raise ValueError("digit_levels must be >= 1")
    count = p ** (digit_levels + 1)
    if seq.is_external and count > len(seq.table.values):
        count = len(seq.table.values)
    vals = coefficients_mod_p(seq, count, p)
    for idx in range(p, count):
        n, l = divmod(idx, p)
        expected = 1
        m = idx
        while m:
            expected = expected * vals[m % p] % p
            m //= p
        if vals[idx] != expected:
            return LucasReport(seq.key, p, False, (n, l))
    return LucasReport(seq.key, p, True)
