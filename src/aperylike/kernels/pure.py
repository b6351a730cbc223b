"""Pure-Python kernel backend.

Reference implementation of the hot loops.  The compiled backend mirrors
this module function for function; the contracts below are shared:

* polynomial coefficient lists are ascending (index = exponent) with entries
  already reduced into [0, p);
* ``poly_mul`` takes nonempty inputs and returns the full product without
  trimming trailing zeros;
* ``poly_divrem`` / ``poly_gcd`` return trimmed lists (empty list = zero).

Sequence truncations are not kernels: ``sequences.coefficients_mod_p`` steps
the catalog recurrences for indices below p and sums digit-wise beyond.
"""

NAME = "pure"


def poly_mul(a, b, p):
    """Schoolbook product of coefficient lists; len(out) == len(a)+len(b)-1."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


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
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def series_inv(a, n, p):
    """Multiplicative series inverse to order n; a[0] must be nonzero."""
    out = [0] * n
    inv0 = pow(a[0], p - 2, p)
    out[0] = inv0
    la = len(a)
    for i in range(1, n):
        s = 0
        for k in range(1, min(i, la - 1) + 1):
            s += a[k] * out[i - k]
        out[i] = -s * inv0 % p
    return out


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
