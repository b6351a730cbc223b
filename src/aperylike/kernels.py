"""The hot loops: polynomial products and remainders, series products and
inverses, and the fractional twist.

Contracts:

* polynomial coefficient lists are ascending (index = exponent) with entries
  already reduced into [0, p), p < 2^31; the products also take tuples;
* ``poly_mul`` takes nonempty inputs and returns the full product without
  trimming trailing zeros;
* ``poly_divrem`` / ``poly_gcd`` return trimmed lists (empty list = zero).

``poly_mul`` and ``series_mul`` are the only products in the library: a
Kronecker substitution that packs each coefficient list into one Python int,
multiplies once and unpacks.  The schoolbook oracle they are tested against
is ``fp_poly.mul_schoolbook``.  ``series_inv``, the one Newton series
inverse, is built on them.

Division and gcd are subquadratic from degree ``_CROSSOVER`` on:
``poly_divrem`` multiplies the reversed dividend by the Newton inverse of the
reversed divisor, and ``poly_gcd`` runs the half-gcd ``_hgcd``, whose 2x2
matrices of Euclid steps are multiplied with ``poly_mul``.  Below the
crossover they fall back to the quadratic loops ``divrem_classic`` and
``gcd_euclid``, which are also the oracles the fast paths are tested
against.  Quotients, remainders and monic gcds are unique, so both paths
return the same lists.

Sequence truncations are not kernels: ``sequences.coefficients_mod_p`` steps
the catalog recurrences mod p^N for every index.
"""
import sys
from array import array

_SWAP = sys.byteorder != "little"  # array('Q') is native-endian

# Degree from which division and gcd leave the quadratic loops.  On the
# squarefree decompositions of Apery truncations up to p = 4999, values from
# 32 to 96 were equally fast within the noise; from 16 down, the many tiny
# Kronecker calls cost more than the loops they replace (see CHANGES.md).
_CROSSOVER = 64


def _pack(a, limbs):
    """The int with a[i] in 64-bit limb i*limbs (little-endian slots)."""
    if limbs == 1:
        arr = array("Q", a)
    else:
        arr = array("Q", bytes(8 * limbs * len(a)))
        arr[::limbs] = array("Q", a)
    if _SWAP:
        arr.byteswap()
    return int.from_bytes(arr, "little")


def _kronecker(a, b, p, count):
    """The first count coefficients of a*b, count <= len(a)+len(b)-1.

    A product coefficient is a sum of at most min(len(a), len(b)) terms below
    (p-1)^2 < 2^62, so one 64-bit limb per slot holds it when that bound
    fits and two limbs always do.
    """
    limbs = 1 if min(len(a), len(b)) * (p - 1) ** 2 < 1 << 64 else 2
    prod = _pack(a, limbs) * _pack(b, limbs)
    width = 8 * limbs
    raw = prod.to_bytes(width * (len(a) + len(b) - 1), "little")
    slots = array("Q")
    slots.frombytes(memoryview(raw)[: width * count])
    if _SWAP:
        slots.byteswap()
    if limbs == 1:
        return [c % p for c in slots]
    return [(lo | hi << 64) % p for lo, hi in zip(slots[::2], slots[1::2])]


def poly_mul(a, b, p):
    """Kronecker product of coefficient lists; len(out) == len(a)+len(b)-1."""
    return _kronecker(a, b, p, len(a) + len(b) - 1)


def _trim(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    del a[n:]
    return a


def _add_shifted(lo, hi, k, p):
    """lo + x^k * hi, trimmed."""
    out = list(lo)
    if len(out) < k + len(hi):
        out.extend([0] * (k + len(hi) - len(out)))
    for i, c in enumerate(hi):
        out[k + i] = (out[k + i] + c) % p
    return _trim(out)


def _mul(a, b, p):
    return poly_mul(a, b, p) if a and b else []


def _sub(a, b, p):
    return _add_shifted(a, [p - c for c in b], 0, p)


def _dot(u0, v0, u1, v1, p):
    """u0*v0 + u1*v1, trimmed."""
    return _add_shifted(_mul(u0, v0, p), _mul(u1, v1, p), 0, p)


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
    (c, d) = m (a_hi, b_hi)."""
    return (_add_shifted(_dot(m[0], a_lo, m[1], b_lo, p), c, k, p),
            _add_shifted(_dot(m[2], a_lo, m[3], b_lo, p), d, k, p))


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
    # s * [[0, 1], [1, -q]] * r
    t0, t1 = _sub(r[0], _mul(q, r[2], p), p), _sub(r[1], _mul(q, r[3], p), p)
    m = (_dot(s[0], r[2], s[1], t0, p), _dot(s[0], r[3], s[1], t1, p),
         _dot(s[2], r[2], s[3], t0, p), _dot(s[2], r[3], s[3], t1, p))
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
    return _kronecker(a, b, p, count) + [0] * (n - count)


def twist_sum(cs, num, den, p):
    """Sum of cs[k] * num^k * den^(L-1-k) for L = len(cs), trimmed.

    This is the denominator-cleared form of substituting the fractional map
    num/den into the polynomial cs and rescaling by den^(L-1).
    """
    L = len(cs)
    acc = [cs[L - 1] % p]
    dpow = [1]
    for k in range(L - 2, -1, -1):
        acc = poly_mul(acc, num, p)
        dpow = poly_mul(dpow, den, p)
        c = cs[k]
        if c:
            if len(dpow) > len(acc):
                acc.extend([0] * (len(dpow) - len(acc)))
            for j, d in enumerate(dpow):
                if d:
                    acc[j] = (acc[j] + c * d) % p
    return _trim(acc)
