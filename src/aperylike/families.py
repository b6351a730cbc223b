"""Per-family algebraic data for the three classical sequence families.

Each family couples its generating series f to the Franel square through
f(t(x)) = rho(x) * h(x)^2, carries the fractional involution sigma fixing
t(x), the quadratic a(t) x^2 + b(t) x + c(t) = 0 satisfied by x over F_p(t),
and the quadratic cofactor showing up in the truncation factorizations.

The twist H = +/- sigma(H) * w^(p-1) needs no data of its own: its factor w
is sigma_den up to a constant, and the (p-1)-th power removes that constant,
so H(sigma_num/sigma_den) cleared by sigma_den^(p-1) already contains w.

A FamilySpec is plain data.  Its polynomials are integer tuples (x- and
t-polynomials, coefficients ascending) that callers reduce mod p as
``FpPoly(spec.t_num, p)``.  Its congruence rules on p are
``(modulus, residues)`` pairs read by ``in_classes``.

Sign conventions.  The Domb catalog entry is the alternating sequence, and
every constant below is validated against exact computation for that
convention: the substitution holds with t(x) = +x(1+x)/(1-8x) and the
factorization cofactor is 64t^2+20t+1.  The unsigned Domb variant
corresponds to t -> -t and flips the middle coefficient of the quadratic;
tables elsewhere often quote that normalization (64t^2-20t+1).  Acceptance
criterion 3 (test_c03_domb_reproduction) checks both: 64t^2-20t+1 verbatim
on the unsigned truncation and 64t^2+20t+1 on the catalog entry.
"""
from __future__ import annotations

from ._record import record


@record
class FamilySpec:
    key: str
    # f(t(x)) = rho(x) h(x)^2 with t = t_num/t_den
    t_num: tuple[int, ...]
    t_den: tuple[int, ...]
    rho: tuple[int, ...]
    # involution sigma: x -> sigma_num/sigma_den fixing t(x)
    sigma_num: tuple[int, ...]
    sigma_den: tuple[int, ...]
    # a(t) x^2 + b(t) x + c(t) = 0, coefficients as t-polynomials
    quad_a: tuple[int, ...]
    quad_b: tuple[int, ...]
    quad_c: tuple[int, ...]
    # quadratic cofactor of the non-square truncations (constant first)
    cofactor_quad: tuple[int, int, int]
    # involution prolongation constant candidates u = +/- u_num/u_den
    u_num: int
    u_den: int
    # sign s such that u = s * u_num/u_den extends sigma to fix f
    fixing_sign: int
    # congruence classes of p, each as (modulus, residues); (1, (0,)) is every p:
    # the truncation at p is predicted to be a perfect square
    square_classes: tuple[int, tuple[int, ...]]
    # the twist reads H = +sigma(H) w^(p-1) (else -sigma(H) w^(p-1))
    twist_plus_classes: tuple[int, tuple[int, ...]]
    # the prolongation constants u must be quadratic residues (else non-residues)
    u_square_classes: tuple[int, tuple[int, ...]]
    # the signs of t(x) that verify_substitution tries, in order
    t_signs: tuple[int, ...]


def in_classes(classes: tuple[int, tuple[int, ...]], p: int) -> bool:
    """Whether p lies in the congruence classes ``(modulus, residues)``."""
    modulus, residues = classes
    return p % modulus in residues


FAMILIES: dict[str, FamilySpec] = {
    # f = (1+x) h^2,  t = x(1-8x)/(1+x),  sigma: x -> (1-8x)/(8+8x)
    "apery": FamilySpec(
        key="apery",
        t_num=(0, 1, -8), t_den=(1, 1), rho=(1, 1),
        sigma_num=(1, -8), sigma_den=(8, 8),
        quad_a=(8,), quad_b=(-1, 1), quad_c=(0, 1),
        cofactor_quad=(1, -34, 1),
        u_num=8, u_den=9, fixing_sign=1,
        square_classes=(24, (1, 5, 7, 11)), twist_plus_classes=(6, (1,)),
        u_square_classes=(6, (1,)), t_signs=(1,),
    ),
    # f = (1-8x) h^2,  t = x(1+x)/(1-8x),  sigma: x -> (1+x)/(8x-1)
    "domb": FamilySpec(
        key="domb",
        t_num=(0, 1, 1), t_den=(1, -8), rho=(1, -8),
        sigma_num=(1, 1), sigma_den=(-1, 8),
        quad_a=(1,), quad_b=(1, 8), quad_c=(0, -1),
        cofactor_quad=(1, 20, 64),
        u_num=1, u_den=9, fixing_sign=1,
        square_classes=(6, (1,)), twist_plus_classes=(6, (1,)),
        u_square_classes=(6, (1,)), t_signs=(1, -1),
    ),
    # f = (1+x)(1-8x) h^2,  t = x/((1+x)(1-8x)),  sigma: x -> -1/(8x)
    "az": FamilySpec(
        key="az",
        t_num=(0, 1), t_den=(1, -7, -8), rho=(1, -7, -8),
        sigma_num=(-1,), sigma_den=(0, 8),
        quad_a=(0, 8), quad_b=(1, 7), quad_c=(0, -1),
        cofactor_quad=(1, 14, 81),
        u_num=8, u_den=1, fixing_sign=-1,
        square_classes=(8, (1, 3)), twist_plus_classes=(1, (0,)),
        u_square_classes=(1, (0,)), t_signs=(1,),
    ),
}


def get_family(family: str) -> FamilySpec:
    """The FamilySpec of a family key; raises ValueError on an unknown key."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} (expected one of {sorted(FAMILIES)})")
    return FAMILIES[family]
