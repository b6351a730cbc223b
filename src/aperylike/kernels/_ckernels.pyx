# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernel backend: ``poly_divrem``, ``poly_gcd`` and ``twist_sum``,
with the semantics of the ``pure`` functions of the same names.  Products
are not here; ``kernels`` binds ``poly_mul`` and ``series_mul`` to the
Kronecker substitution in ``pure`` under every backend.

All residues live in [0, p) with p < 2^31, so every product fits in a
signed 64-bit integer and one reduction per multiply-add keeps the
accumulator in range.
"""
from libc.stdlib cimport malloc, free

NAME = "compiled"

ctypedef long long i64


cdef inline i64 modpow(i64 base, i64 exp, i64 p):
    cdef i64 r = 1
    base %= p
    while exp > 0:
        if exp & 1:
            r = r * base % p
        base = base * base % p
        exp >>= 1
    return r


cdef i64* _to_buf(list a) except NULL:
    cdef Py_ssize_t n = len(a), i
    cdef i64* buf = <i64*>malloc((n if n else 1) * sizeof(i64))
    if buf == NULL:
        raise MemoryError()
    for i in range(n):
        buf[i] = a[i]
    return buf


cdef list _to_list(i64* buf, Py_ssize_t n):
    cdef Py_ssize_t i
    out = [0] * n
    for i in range(n):
        out[i] = buf[i]
    return out


def poly_divrem(list a, list b, p_in):
    """Quotient and remainder with deg r < deg b; b must have a nonzero lead."""
    cdef i64 p = p_in
    cdef Py_ssize_t la = len(a), db = len(b) - 1, i, j
    cdef i64* r = _to_buf(a)
    cdef i64* pb = _to_buf(b)
    cdef i64* q
    cdef Py_ssize_t lq, lr
    cdef i64 inv_lead, c
    while la and r[la - 1] == 0:
        la -= 1
    if la <= db:
        result = ([], _to_list(r, la))
        free(r); free(pb)
        return result
    lq = la - db
    q = <i64*>malloc(lq * sizeof(i64))
    if q == NULL:
        free(r); free(pb)
        raise MemoryError()
    inv_lead = modpow(pb[db], p - 2, p)
    for i in range(lq - 1, -1, -1):
        c = r[i + db] * inv_lead % p
        q[i] = c
        if c:
            for j in range(db + 1):
                r[i + j] = (r[i + j] - c * pb[j]) % p
                if r[i + j] < 0:
                    r[i + j] += p
    lr = db
    while lr and r[lr - 1] == 0:
        lr -= 1
    result = (_to_list(q, lq), _to_list(r, lr))
    free(r); free(pb); free(q)
    return result


def poly_gcd(list a, list b, p_in):
    """Monic gcd by in-place Euclid; inputs must not both be zero."""
    cdef i64 p = p_in
    cdef Py_ssize_t la = len(a), lb = len(b), i, j, d
    cdef i64* u = _to_buf(a)
    cdef i64* v = _to_buf(b)
    cdef i64* tmp
    cdef i64 inv_lead, c
    while la and u[la - 1] == 0:
        la -= 1
    while lb and v[lb - 1] == 0:
        lb -= 1
    if la < lb:
        tmp = u; u = v; v = tmp
        la, lb = lb, la
    while lb:
        # u <- u mod v (in place), then swap
        inv_lead = modpow(v[lb - 1], p - 2, p)
        for i in range(la - lb, -1, -1):
            c = u[i + lb - 1] * inv_lead % p
            if c:
                for j in range(lb):
                    u[i + j] = (u[i + j] - c * v[j]) % p
                    if u[i + j] < 0:
                        u[i + j] += p
        d = lb - 1
        while d and u[d - 1] == 0:
            d -= 1
        tmp = u; u = v; v = tmp
        la = lb
        lb = d
    inv_lead = modpow(u[la - 1], p - 2, p)
    for i in range(la):
        u[i] = u[i] * inv_lead % p
    result = _to_list(u, la)
    free(u); free(v)
    return result


def twist_sum(list cs, list num, list den, p_in):
    """Sum of cs[k] * num^k * den^(L-1-k), trimmed."""
    cdef i64 p = p_in
    cdef Py_ssize_t L = len(cs), dn = len(num) - 1, dd = len(den) - 1
    cdef Py_ssize_t maxdeg = dn if dn > dd else dd
    cdef Py_ssize_t cap = (L - 1) * maxdeg + 1 if L > 1 else 1
    cdef i64* pc = _to_buf(cs)
    cdef i64* pn = _to_buf(num)
    cdef i64* pd = _to_buf(den)
    cdef i64* acc = <i64*>malloc(cap * sizeof(i64))
    cdef i64* dpow = <i64*>malloc(cap * sizeof(i64))
    cdef i64* scratch = <i64*>malloc(cap * sizeof(i64))
    if acc == NULL or dpow == NULL or scratch == NULL:
        free(pc); free(pn); free(pd)
        if acc != NULL: free(acc)
        if dpow != NULL: free(dpow)
        if scratch != NULL: free(scratch)
        raise MemoryError()
    cdef Py_ssize_t lacc = 1, ldpow = 1, i, j, newlen
    cdef Py_ssize_t k
    cdef i64 x, c
    acc[0] = pc[L - 1] % p
    dpow[0] = 1
    for k in range(L - 2, -1, -1):
        # acc *= num
        newlen = lacc + dn
        for i in range(newlen):
            scratch[i] = 0
        for i in range(lacc):
            x = acc[i]
            if x:
                for j in range(dn + 1):
                    scratch[i + j] = (scratch[i + j] + x * pn[j]) % p
        for i in range(newlen):
            acc[i] = scratch[i]
        lacc = newlen
        # dpow *= den
        newlen = ldpow + dd
        for i in range(newlen):
            scratch[i] = 0
        for i in range(ldpow):
            x = dpow[i]
            if x:
                for j in range(dd + 1):
                    scratch[i + j] = (scratch[i + j] + x * pd[j]) % p
        for i in range(newlen):
            dpow[i] = scratch[i]
        ldpow = newlen
        # acc += cs[k] * dpow
        c = pc[k]
        if c:
            if ldpow > lacc:
                for i in range(lacc, ldpow):
                    acc[i] = 0
                lacc = ldpow
            for i in range(ldpow):
                if dpow[i]:
                    acc[i] = (acc[i] + c * dpow[i]) % p
    while lacc and acc[lacc - 1] == 0:
        lacc -= 1
    result = _to_list(acc, lacc)
    free(pc); free(pn); free(pd); free(acc); free(dpow); free(scratch)
    return result
