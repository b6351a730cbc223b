"""Pure-Python kernel backend.

Reference implementation of the hot loops; the contracts below are shared
with the compiled backend, which implements only ``poly_divrem``,
``poly_gcd`` and ``twist_sum``:

* polynomial coefficient lists are ascending (index = exponent) with entries
  already reduced into [0, p), p < 2^31; the products also take tuples;
* ``poly_mul`` takes nonempty inputs and returns the full product without
  trimming trailing zeros;
* ``poly_divrem`` / ``poly_gcd`` return trimmed lists (empty list = zero).

``poly_mul`` and ``series_mul`` are the only products in the library, under
every backend: a Kronecker substitution that packs each coefficient list
into one Python int, multiplies once and unpacks.  The schoolbook oracle
they are tested against is ``fp_poly.mul_schoolbook``.

Sequence truncations are not kernels: ``sequences.coefficients_mod_p`` steps
the catalog recurrences for indices below p and sums digit-wise beyond.
"""
import sys
from array import array

NAME = "pure"

_SWAP = sys.byteorder != "little"  # array('Q') is native-endian


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


def poly_divrem(a, b, p):
    """Quotient and remainder with deg r < deg b; b must have a nonzero lead."""
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


def poly_gcd(a, b, p):
    """Monic greatest common divisor; inputs must not both be zero."""
    a = _trim(list(a))
    b = _trim(list(b))
    while b:
        a, b = b, poly_divrem(a, b, p)[1]
    inv_lead = pow(a[-1], p - 2, p)
    return [c * inv_lead % p for c in a]


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
