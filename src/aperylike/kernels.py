"""The hot loops: polynomial products and remainders, and series products,
inverses and compositions.

Contracts:

* polynomial coefficient lists are ascending (index = exponent) with entries
  already reduced into [0, p), p < 2^31; the products also take tuples;
* ``poly_mul`` takes nonempty inputs and returns the full product without
  trimming trailing zeros;
* ``poly_divrem`` / ``poly_gcd`` return trimmed lists (empty list = zero);
* ``series_mul``, ``series_inv`` and ``series_compose`` return exactly n
  coefficients (the order x^n they truncate at); ``series_compose`` takes a
  nonempty outer list and an inner list with zero constant term.

Every product in the library is one Kronecker substitution, ``_muladd``: it
packs each coefficient list into one Python int, sums the products of its
pairs of lists and one term shifted by k slots, and unpacks and reduces the
sum mod p once.  A slot is 4, 8 or 16 bytes, the narrowest that holds the
largest value the sum can put there (``_slot_width``).  For a product of
lists of m and n coefficients that is min(m, n) (p-1)^2, so near p = 2000
a product whose shorter factor has fewer than about 1000 coefficients
packs into 4-byte slots, half the width of a 64-bit limb.
``poly_mul`` and ``series_mul`` are its one-pair case; the schoolbook oracle
they are tested against is ``fp_poly.mul_schoolbook``.  ``series_inv``, the
one Newton series inverse, is built on them, and so is ``series_compose``,
the one series composition (Brent-Kung baby steps and giant steps): its
products are ``series_mul`` calls, and its only other work is big-int scalar
multiples of packed powers, packed and unpacked with the same slot rule.

Division and gcd are subquadratic from degree ``_CROSSOVER`` on:
``poly_divrem`` multiplies the reversed dividend by the Newton inverse of the
reversed divisor, and ``poly_gcd`` runs the half-gcd ``_hgcd``, whose lifts
and 2x2 matrix products are one ``_muladd`` per entry.  Below the
crossover they fall back to the quadratic loops ``divrem_classic`` and
``gcd_euclid``, which are also the oracles the fast paths are tested
against.  Quotients, remainders and monic gcds are unique, so both paths
return the same lists.

Sequence truncations are not kernels: ``sequences.coefficients_mod_p`` steps
the catalog recurrences mod p^N for every index.
"""
import sys
from array import array
from math import isqrt

_SWAP = sys.byteorder != "little"  # array('I') and array('Q') are native-endian

# Degree from which division and gcd leave the quadratic loops.  On the
# squarefree decompositions of Apery truncations up to p = 4999, values from
# 32 to 96 were equally fast within the noise; from 16 down, the many tiny
# Kronecker calls cost more than the loops they replace (see CHANGES.md).
_CROSSOVER = 64


def _slot_width(bound):
    """Bytes per packed slot for slot values below bound: 4, 8 or 16."""
    return 4 if bound < 1 << 32 else 8 if bound < 1 << 64 else 16


def _pack(a, width):
    """The int with a[i] in slot i of ``width`` bytes (little-endian)."""
    if width < 16:
        arr = array("I" if width == 4 else "Q", a)  # 'I' is 4 bytes on CPython
    else:
        arr = array("Q", bytes(width * len(a)))
        arr[::2] = array("Q", a)
    if _SWAP:
        arr.byteswap()
    return int.from_bytes(arr, "little")


def _unpack(x, width, total, count, p):
    """The first count of the total slots of x (``width`` bytes each,
    little-endian), reduced mod p; x must fit in total slots."""
    raw = x.to_bytes(width * total, "little")
    slots = array("I" if width == 4 else "Q")
    slots.frombytes(memoryview(raw)[: width * count])
    if _SWAP:
        slots.byteswap()
    if width < 16:
        return [c % p for c in slots]
    return [(lo | hi << 64) % p for lo, hi in zip(slots[::2], slots[1::2])]


def _muladd(pairs, p, shift=(), k=0, count=None):
    """The first count coefficients (default: all) of the sum of a*b over the
    pairs (a, b), plus x^k * shift, reduced mod p.  Pairs with an empty
    factor are skipped; the result is not trimmed.

    One Kronecker substitution serves the whole sum: a slot adds at most
    min(len(a), len(b)) terms below (p-1)^2 per pair and one coefficient of
    shift below p, so it is ``_slot_width`` of that bound, and the sum is
    unpacked and reduced once.
    """
    pairs = [(a, b) for a, b in pairs if a and b]
    total = max((len(a) + len(b) - 1 for a, b in pairs), default=0)
    terms = sum(min(len(a), len(b)) for a, b in pairs)
    width = _slot_width(terms * (p - 1) ** 2 + (p - 1 if shift else 0))
    x = sum(_pack(a, width) * _pack(b, width) for a, b in pairs)
    if shift:
        total = max(total, k + len(shift))
        x += _pack(shift, width) << 8 * width * k
    return _unpack(x, width, total, total if count is None else count, p)


def poly_mul(a, b, p):
    """Kronecker product of coefficient lists; len(out) == len(a)+len(b)-1."""
    return _muladd(((a, b),), p)


def _trim(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    del a[n:]
    return a


def _submul(u, q, v, p):
    """u - q*v by the schoolbook loop, for the short quotients of Euclid."""
    out = list(u)
    if v and len(out) < len(q) + len(v) - 1:
        out.extend([0] * (len(q) + len(v) - 1 - len(out)))
    for i, c in enumerate(q):
        if c:
            for j, x in enumerate(v):
                out[i + j] = (out[i + j] - c * x) % p
    return _trim(out)


def divrem_classic(a, b, p):
    """Quadratic long division; the base case and oracle of ``poly_divrem``."""
    r = list(a)
    _trim(r)
    db = len(b) - 1
    if len(r) <= db:
        return [], r
    q = [0] * (len(r) - db)
    inv_lead = pow(b[db], p - 2, p)
    for i in range(len(r) - db - 1, -1, -1):
        c = r[i + db] * inv_lead % p
        if c:
            q[i] = c
            for j in range(db + 1):
                r[i + j] = (r[i + j] - c * b[j]) % p
    del r[db:]
    return q, _trim(r)


def poly_divrem(a, b, p):
    """Quotient and remainder with deg r < deg b; b must have a nonzero lead.

    When deg q and deg b both reach ``_CROSSOVER``, rev(q) is rev(a) times
    the Newton inverse of rev(b) mod x^(deg q + 1), and r is the low deg b
    coefficients of a - q*b; otherwise ``divrem_classic``.
    """
    a = _trim(list(a))
    db = len(b) - 1
    k = len(a) - 1 - db  # deg q
    if min(k, db) < _CROSSOVER:
        return divrem_classic(a, b, p)
    rev_q = series_mul(a[::-1], series_inv(b[::-1], k + 1, p), k + 1, p)
    q = rev_q[::-1]  # rev_q[0] = lc(a) / lc(b) != 0, so q is trimmed
    qb = series_mul(q, b, db, p)
    return q, _trim([(x - y) % p for x, y in zip(a, qb)])


def gcd_euclid(a, b, p):
    """Monic gcd by Euclid's remainder sequence; the base case and oracle of
    ``poly_gcd``.  Inputs must not both be zero."""
    a = _trim(list(a))
    b = _trim(list(b))
    while b:
        a, b = b, divrem_classic(a, b, p)[1]
    inv_lead = pow(a[-1], p - 2, p)
    return [c * inv_lead % p for c in a]


_IDENTITY = ([1], [], [], [1])


def _hgcd_euclid(a, b, h, p):
    """``_hgcd`` by Euclid steps while deg b >= h, the matrix rows updated by
    ``_submul``."""
    m00, m01, m10, m11 = _IDENTITY
    while len(b) > h:
        q, r = divrem_classic(a, b, p)
        a, b = b, r
        m00, m01, m10, m11 = m10, m11, _submul(m00, q, m10, p), _submul(m01, q, m11, p)
    return (m00, m01, m10, m11), a, b


def _lift(m, c, d, a_lo, b_lo, k, p):
    """m (a, b) for a = a_lo + x^k a_hi, b = b_lo + x^k b_hi, given
    (c, d) = m (a_hi, b_hi); each row is one ``_muladd``."""
    return (_trim(_muladd(((m[0], a_lo), (m[1], b_lo)), p, c, k)),
            _trim(_muladd(((m[2], a_lo), (m[3], b_lo)), p, d, k)))


def _hgcd(a, b, p, matrix=True):
    """Half-gcd of a, b with deg a > deg b (Thull-Yap).

    Returns (m, c, d): m = (m00, m01, m10, m11) is the product of the Euclid
    steps [[0, 1], [1, -q]] that take (a, b) to (c, d) = m (a, b), the
    consecutive remainders with deg c >= h > deg d for h = ceil(deg a / 2).
    The steps taken on the top halves of a, b are steps of a, b itself
    (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 11).  With
    ``matrix=False`` m is None, which saves the last matrix product when
    only the pair is wanted.
    """
    h = len(a) // 2
    if len(b) <= h:
        return _IDENTITY, a, b
    if len(a) <= _CROSSOVER:
        return _hgcd_euclid(a, b, h, p)
    r, c, d = _hgcd(a[h:], b[h:], p)
    c, d = _lift(r, c, d, _trim(a[:h]), _trim(b[:h]), h, p)
    if len(d) <= h:
        return r, c, d
    q, e = poly_divrem(c, d, p)
    k = 2 * h - (len(d) - 1)
    s, f, g = _hgcd(d[k:], e[k:], p)
    f, g = _lift(s, f, g, _trim(d[:k]), _trim(e[:k]), k, p)
    if not matrix:
        return None, f, g
    # s * [[0, 1], [1, -q]] * r = s * [[r2, r3], [t0, t1]] for
    # t_j = r_j - q r_(j+2); each entry is one _muladd
    neg_q = [-c % p for c in q]
    t = [_trim(_muladd(((neg_q, r[j + 2]),), p, r[j])) for j in (0, 1)]
    m = tuple(_trim(_muladd(((s[i], r[j + 2]), (s[i + 1], t[j])), p))
              for i in (0, 2) for j in (0, 1))
    return m, f, g


def poly_gcd(a, b, p):
    """Monic greatest common divisor; inputs must not both be zero.

    Above ``_CROSSOVER``, alternates one division step with ``_hgcd``, which
    halves the degree of the remainder pair; below it, ``gcd_euclid``.
    """
    a = _trim(list(a))
    b = _trim(list(b))
    if len(a) < len(b):
        a, b = b, a
    while len(b) > _CROSSOVER:
        a, b = b, poly_divrem(a, b, p)[1]
        if len(b) > _CROSSOVER:
            a, b = _hgcd(a, b, p, matrix=False)[1:]
    return gcd_euclid(a, b, p)


def series_inv(a, n, p):
    """Inverse of the series a mod x^n, n >= 1; a[0] must be nonzero mod p.

    Newton iteration g <- g * (2 - a g), doubling the precision each step.
    """
    g = [pow(a[0], p - 2, p)]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        upd = [(-c) % p for c in series_mul(a, g, prec, p)]
        upd[0] = (upd[0] + 2) % p
        g = series_mul(g, upd, prec, p)
    return g


def series_mul(a, b, n, p):
    """Product truncated at order n; returns exactly n coefficients."""
    a, b = a[:n], b[:n]
    if not a or not b:
        return [0] * n
    count = min(n, len(a) + len(b) - 1)
    return _muladd(((a, b),), p, count=count) + [0] * (n - count)


def series_compose(f, g, n, p):
    """f(g) mod x^n for a nonempty f and g[0] = 0; returns n coefficients.

    Brent-Kung baby-step/giant-step: with k = len(f) and m = ceil(sqrt(k)),
    f(g) = sum_i C_i(g) (g^m)^i for the chunks C_i = f[i*m:(i+1)*m].  The
    baby steps g^0 .. g^(m-1) are packed once; each C_i(g) is a sum of
    big-int scalar multiples of them, unpacked once, and Horner in g^m joins
    the chunks.  That is about 2*sqrt(k) calls to ``series_mul`` instead of
    the k of Horner in g.  A slot of C_i(g) sums at most m terms below
    (p-1)^2, so its width is ``_slot_width`` of m*(p-1)^2.
    """
    k = len(f)
    m = isqrt(k - 1) + 1
    g = g[:n]
    powers = [[1], g]
    while len(powers) < m:
        powers.append(series_mul(powers[-1], g, n, p))
    width = _slot_width(m * (p - 1) ** 2)
    packed = [_pack(gj, width) for gj in powers[:m]]

    def chunk(i):
        combo = sum(c * x for c, x in zip(f[i * m:(i + 1) * m], packed))
        return _unpack(combo, width, n, n, p)

    top = (k - 1) // m
    acc = chunk(top)
    if top:
        giant = series_mul(powers[m - 1], g, n, p)
        for i in range(top - 1, -1, -1):
            acc = [(x + c) % p for x, c in zip(series_mul(acc, giant, n, p), chunk(i))]
    return acc
