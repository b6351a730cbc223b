"""Kernel backend selection.

The hot loops (polynomial products and remainders, series convolutions and
inverses, the fractional twist) live behind a small function surface.
Products (``poly_mul``, ``series_mul``) and the Newton series inverse
(``series_inv``) have one implementation under every backend, in ``pure``.
Division, gcd and the twist have two interchangeable implementations:

* ``_ckernels`` -- a compiled Cython extension, used when available;
* ``pure`` -- plain Python with identical semantics, always available.
  Its ``poly_divrem`` and ``poly_gcd`` are subquadratic from degree
  ``pure._CROSSOVER`` on (Newton division, half-gcd) and keep the quadratic
  loops ``divrem_classic`` and ``gcd_euclid`` as base cases and oracles.

Sequence truncations are not here: the catalog recurrences give every
index in one step each, see ``sequences.coefficients_mod_p``.

Selection happens once at import.  Set ``APERYLIKE_KERNELS=pure`` or
``APERYLIKE_KERNELS=compiled`` to force a backend (the latter raises if the
extension is missing); anything else means "compiled if it built".
"""
import os

from . import pure as _pure

_choice = os.environ.get("APERYLIKE_KERNELS", "auto").lower()

if _choice == "pure":
    _impl = _pure
else:
    try:
        from . import _ckernels as _impl  # type: ignore[attr-defined]

        if not hasattr(_impl, "NAME"):  # stale or partial build
            raise ImportError("compiled kernels incomplete")
    except ImportError:
        if _choice == "compiled":
            raise
        _impl = _pure

BACKEND = _impl.NAME

poly_mul = _pure.poly_mul
series_mul = _pure.series_mul
series_inv = _pure.series_inv
poly_divrem = _impl.poly_divrem
poly_gcd = _impl.poly_gcd
twist_sum = _impl.twist_sum


def get_backends():
    """Return the available backend modules keyed by name (for benchmarks/tests)."""
    out = {"pure": _pure}
    try:
        from . import _ckernels  # type: ignore[attr-defined]

        out["compiled"] = _ckernels
    except ImportError:
        pass
    return out
