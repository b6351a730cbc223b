"""The sequence catalog: exact big-integer evaluators, three-term
recurrences, and ingestion of external coefficient files.

A sequence is its oracle ``exact``, which sums the defining formula with
big-integer binomials, one residue source ``terms``, and ``lead``, the
leading polynomial L = 1 - beta t - gamma t^2 of its order-2 integer
recurrence, found once where the sequence is built: read off a catalog row,
or found from the first exact values (``_recurrence_lead``).  Each source
gives ``residues(count, p)``, its first ``count`` values mod p, and ``size``,
the number of terms it holds (None when it has no end); every residue, one
index included, is read from ``residues``:

* ``Recurrence``: a catalog row's (n+1)^k u_{n+1} = b(n) u_n + c(n) u_{n-1},
  stored as integer data and stepped modulo p^N, one step per coefficient.
  Below p, N = 1 and (n+1)^k is a unit mod p; each multiple of p costs k
  digits of p-adic precision per factor p (see ``Recurrence.residues``);
* ``GenSum``: the generalized family ``gen:r,s``, which stores no recurrence
  and is summed in F_p with digit-wise (Lucas) binomials;
* ``CoefficientTable``: the values of an external b-file, which are also its
  ``exact``.

Indices n >= p come from the integer recurrence mod p^N, never from the Lucas
product a_(np+l) = a_n a_l: ``verify_lucas_property`` and the Kummer check
test that product, and both report a ``FrobeniusReport``.
"""
from __future__ import annotations

import math
from functools import partial

from . import kernels
from ._record import record
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


# -- residue sources ---------------------------------------------------------------

# Decimal digits per limb of an external table.  int(str) is quadratic in the
# digit count, and each limb costs a fixed Python-level step when it is parsed
# and again in every residue pass.  On a 2100-term Apery b-file (values up to
# 3209 digits), parsing plus three residue passes was flattest between 250 and
# 400 digits and slower at 200 or 500.  Any width below 4300 keeps int() clear
# of CPython's limit on the length of an integer string.
LIMB_DIGITS = 300
_LIMB = 10 ** LIMB_DIGITS
_TWO_LIMB_BITS = 2 * _LIMB.bit_length()


@record
class CoefficientTable:
    """Externally supplied exact coefficients, contiguous from index 0.

    Each value is held as its base-10^LIMB_DIGITS limbs, most significant
    first, every limb carrying the value's sign, so that reading a table and
    reducing it mod p are both linear in its digits.  ``key`` is the key of
    the sequence it serves, for error messages.
    """

    key: str
    limbs: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.limbs)

    def value(self, n: int) -> int:
        """The exact value at index n >= 0, rebuilt without a string
        conversion."""
        if n >= len(self.limbs):
            raise ValueError(f"{self.key} has {len(self.limbs)} terms; "
                             f"index {n} out of range")
        acc = 0
        for x in self.limbs[n]:
            acc = acc * _LIMB + x
        return acc

    def residues(self, count: int, p: int) -> list[int]:
        """The first ``count`` values mod p (none when count <= 0)."""
        if count > len(self.limbs):
            raise ValueError(f"{self.key} has {len(self.limbs)} terms; need {count}")
        r = _LIMB % p
        return [_limbs_mod(limbs, r, p) for limbs in self.limbs[:max(count, 0)]]


def _limbs_mod(limbs: tuple[int, ...], r: int, p: int) -> int:
    """Horner's rule in base r = 10^LIMB_DIGITS mod p.  A step adds fewer than
    log2(p) bits, so the accumulator is reduced only once it outgrows two
    limbs; every step stays linear in the limb width."""
    acc = 0
    for x in limbs:
        acc = acc * r + x
        if acc.bit_length() > _TWO_LIMB_BITS:
            acc %= p
    return acc % p


def _limbs(text: bytes) -> tuple[int, ...] | None:
    """The limbs of an ASCII integer ``[+-]?[0-9]+``, or None for any other
    bytes.  Unlike int(), this rejects underscores and non-ASCII digits."""
    digits = text[1:] if text.startswith((b"+", b"-")) else text
    # bytes.isdigit accepts only ASCII digits, and runs at C speed
    if not digits.isdigit():
        return None
    if len(digits) <= LIMB_DIGITS:
        return (int(text),)
    head = len(digits) % LIMB_DIGITS or LIMB_DIGITS
    limbs = [int(digits[:head])]
    limbs += [int(digits[i:i + LIMB_DIGITS])
              for i in range(head, len(digits), LIMB_DIGITS)]
    if text.startswith(b"-"):
        return tuple(-x for x in limbs)
    return tuple(limbs)


def _quote(line: bytes) -> str:
    """``line`` for an error message, cut to at most 80 characters; bytes
    that are not UTF-8 show as escapes."""
    text = line.decode(errors="backslashreplace")
    return repr(text if len(text) <= 80 else text[:77] + "...")


@record
class Recurrence:
    """(n+1)^k u_{n+1} = b(n) u_n + c(n) u_{n-1} for n >= 1, with u_0 = 1.

    ``b`` and ``c`` are integer polynomials in n, coefficients ascending.
    """

    k: int
    u1: int
    b: tuple[int, ...]
    c: tuple[int, ...]

    size = None

    def residues(self, count: int, p: int) -> list[int]:
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
class GenSum:
    """sum_k C(n,k)^r C(n+k,n)^s, summed in F_p with digit-wise (Lucas)
    binomials; ``residues`` builds ``digit_binomial(p)`` once for all its
    indices."""

    r: int
    s: int

    size = None

    def residues(self, count: int, p: int) -> list[int]:
        binom = digit_binomial(p)
        r, s = self.r, self.s
        return [sum(pow(binom(n, k), r, p) * pow(binom(n + k, n), s, p)
                    for k in range(n + 1)) % p
                for n in range(count)]


@record
class SequenceSpec:
    """A sequence: its oracle ``exact`` (n -> int), its one residue source
    ``terms``, a ``Recurrence``, ``GenSum`` or ``CoefficientTable``, and
    ``lead``, L's integer coefficients, constant first, or None."""

    key: str
    description: str
    exact: object
    terms: Recurrence | GenSum | CoefficientTable
    level: int | None = None
    oeis: str | None = None
    lead: tuple[int, ...] | None = None


# The finder reads the first _LEAD_TERMS values: the equations at n < 20 for
# the 12 coefficients of c_0, c_1, c_2, each of degree <= 3 in n.
_LEAD_TERMS = 22


def _recurrence_lead(exact, size: int | None = None) -> tuple[int, ...] | None:
    """L = (l_2, l_1, l_0), constant first, for an integer recurrence
    sum_{j<=2} c_j(n) a_(n+j) = 0, deg c_j <= 3, that a_n = exact(n)
    satisfies at n < 20, l_j the top coefficient of c_j in n, with content 1
    and first nonzero entry positive; None when ``size`` (the values
    ``exact`` holds) is below _LEAD_TERMS, no such recurrence exists or L is
    constant.  Any nullspace vector of the fraction-free Gauss-Jordan
    elimination will do: every multiple of the minimal recurrence in the
    ansatz has the same L up to scale, and a larger nullspace gives a guess
    that ``kummer_galois.certify`` proves or rejects."""
    if size is not None and size < _LEAD_TERMS:
        return None
    a = [exact(n) for n in range(_LEAD_TERMS)]
    # column 4j + i holds the coefficient of n^i in c_j
    rows = [[n ** i * a[n + j] for j in range(3) for i in range(4)]
            for n in range(_LEAD_TERMS - 2)]
    pivots: list[int] = []  # the pivot column of each row of the reduced form
    for col in range(12):
        rank = len(pivots)
        r = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if r is None:
            continue
        rows[rank], rows[r] = rows[r], rows[rank]
        pivot = rows[rank]
        for k, row in enumerate(rows):
            if row[col] and k != rank:
                rows[k] = _primitive([pivot[col] * x - row[col] * y for x, y in zip(row, pivot)])
        pivots.append(col)
    free = next((col for col in range(12) if col not in pivots), None)
    if free is None:
        return None
    scale = math.lcm(*(rows[r][col] for r, col in enumerate(pivots)))
    vec = [scale if col == free else 0 for col in range(12)]
    for r, col in enumerate(pivots):
        vec[col] = -rows[r][free] * scale // rows[r][col]
    top = max(col % 4 for col in range(12) if vec[col])
    lead = _primitive([vec[8 + top], vec[4 + top], vec[top]])
    return tuple(lead) if any(lead[1:]) else None


def _primitive(row: list[int]) -> list[int]:
    """``row`` over its content, its first nonzero entry made positive."""
    g = math.gcd(*row) * (-1 if next((x for x in row if x), 0) < 0 else 1)
    return [x // g for x in row] if g else row


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


def _row_lead(k, b, c) -> tuple[int, int, int]:
    """(1, -beta, -gamma), beta and gamma the coefficients of n^k in b(n) and
    c(n), 0 past the end of a shorter tuple."""
    return (1, *(-x[k] if len(x) > k else 0 for x in (b, c)))


CATALOG: dict[str, SequenceSpec] = {
    key: SequenceSpec(key=key, description=desc, exact=exact,
                      terms=Recurrence(*rec), level=level, oeis=oeis,
                      lead=_row_lead(rec[0], rec[2], rec[3]))
    for key, desc, exact, rec, level, oeis in _CATALOG_ROWS
}


def generalized(r: int, s: int) -> SequenceSpec:
    """The two-exponent family sum_k C(n,k)^r C(n+k,n)^s."""
    if r < 0 or s < 0:
        raise ValueError("exponents must be nonnegative")
    exact = partial(gen_apery_exact, r, s)
    return SequenceSpec(
        key=f"gen:{r},{s}",
        description=f"sum_k C(n,k)^{r} C(n+k,n)^{s}",
        exact=exact,
        terms=GenSum(r, s),
        lead=_recurrence_lead(exact),
    )


def load_external(path) -> SequenceSpec:
    """Parse an OEIS-style b-file: one "index value" pair per line,
    '#' comments of any bytes, indices contiguous from 0, values ASCII
    integers of any length."""
    limbs: list[tuple[int, ...]] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(b"#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise BFileError(f"expected 'index value', got {_quote(line)}", lineno)
            idx, val = _limbs(fields[0]), _limbs(fields[1])
            if idx is None or val is None:
                raise BFileError(f"non-integer entry in {_quote(line)}", lineno)
            if idx != (len(limbs),):
                shown = idx[0] if len(idx) == 1 else _quote(fields[0])
                raise BFileError(
                    f"index {shown} out of order (expected {len(limbs)})", lineno)
            limbs.append(val)
    if not limbs:
        raise BFileError("file contains no coefficients")
    key = f"external:{_stem(path)}"
    table = CoefficientTable(key, tuple(limbs))
    return SequenceSpec(
        key=key,
        description=f"external coefficient table ({len(limbs)} terms)",
        exact=table.value,
        terms=table,
        lead=_recurrence_lead(table.value, table.size),
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
    return seq.exact(n)


def term_mod_p(seq: SequenceSpec, n: int, p: int) -> int:
    """Value mod p, without the exact sum: index n of the first n + 1
    residues of ``seq.terms``."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return seq.terms.residues(n + 1, p)[n]


def coefficients_mod_p(seq: SequenceSpec, count: int, p: int) -> list[int]:
    """First ``count`` coefficients mod p.

    Every index of a catalog row, at and beyond p included, comes from its
    recurrence stepped mod p^N (``Recurrence.residues``), never from the
    Lucas product; every index of ``gen:r,s`` from the digit-wise summand.
    """
    return seq.terms.residues(count, p)


def truncation_poly(seq: SequenceSpec, p: int) -> FpPoly:
    """A_p = sum_{n<p} a_n t^n reduced mod p."""
    return FpPoly(coefficients_mod_p(seq, p, p), p)


def kummer_mismatch(cs, p: int, start: int = 0) -> int | None:
    """The first index i >= start with cs[i] != (A * f(t^p))[i], or None, for
    the series f with coefficients cs and A its first p coefficients.

    Frobenius turns f^p into f(t^p) exactly in characteristic p, so
    f = A * f^p is one convolution.  Its coefficient i is
    cs[i mod p] * cs[i div p], since t^(kp) with k = i div p is the one
    power of t^p that meets A's degrees below p.
    """
    n = len(cs)
    frob = [0] * n
    for i in range(0, n, p):
        frob[i] = cs[i // p]
    rhs = kernels.series_mul(list(cs[:p]), frob, n, p)
    return next((i for i in range(start, n) if cs[i] != rhs[i]), None)


@record
class FrobeniusReport:
    """The verdict of a Frobenius check of ``seq`` at p: ``mismatch`` is the
    first index where ``kummer_mismatch`` finds f != A * f(t^p), or None."""

    seq: str
    p: int
    mismatch: int | None

    @property
    def ok(self) -> bool:
        return self.mismatch is None

    @property
    def counterexample(self) -> tuple[int, int] | None:
        """The mismatch as (n, l) with index n p + l, or None."""
        return None if self.mismatch is None else divmod(self.mismatch, self.p)


def verify_lucas_property(seq: SequenceSpec, p: int, digit_levels: int = 1) -> FrobeniusReport:
    """Check a_(np+l) = a_n * a_l mod p for every index np + l >= p below
    p^(digit_levels+1) (and below the size of an external table).

    Level 1 checks all n, l < p (indices below p^2); level 2 extends n to
    p^2 (indices below p^3).  The check is ``kummer_mismatch`` from index p
    on, the convolution that ``verify kummer`` runs.  It finds the same first
    counterexample as the definition, a_i = the product of a_d over the
    base-p digits d of i.  By induction on i >= p: if every a_m with
    p <= m < i equals its digit product, then so does a_n with n = i div p
    (for n < p that product is a_n itself), and the digit product of i is
    a_l times that of n, l = i mod p; so a_i differs from it exactly when
    a_i != a_n * a_l.  Indices below p are not checked, so a table with
    a_0 != 1 is judged only from index p on.  The report's
    ``counterexample`` is the first (n, l); it is returned instead of
    raised, since external tables are allowed to fail; a table of at most p
    terms, with no index to check, raises ValueError.
    """
    if digit_levels < 1:
        raise ValueError("digit_levels must be >= 1")
    count = p ** (digit_levels + 1)
    if seq.terms.size is not None:
        count = min(count, seq.terms.size)
    if count <= p:
        raise ValueError(f"{seq.key} has {seq.terms.size} terms, none past p={p} to check")
    cs = coefficients_mod_p(seq, count, p)
    return FrobeniusReport(seq.key, p, kummer_mismatch(cs, p, start=p))
