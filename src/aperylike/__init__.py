"""Truncations of Apery-like generating series modulo primes.

The library computes A_p = sum_{n<p} a_n t^n for a catalog of binomial-sum
sequences, factors it as c * P(t) * B_p(t)^2, determines the degree of the
Kummer extension F_p(t, f)/F_p(t) the full series generates, verifies the
algebraic identities linking each family to the Franel square, and mines
quadratic-residue / congruence classifiers of the cofactors P across prime
ranges.
"""
from .errors import (BFileError, IdentityViolationError, ReconstructionError,
                     UnsupportedPrimeError)
from .families import FAMILIES, FamilySpec
from .finite_field import (FpElem, Prime, binomial_lucas, factorial_tables,
                           inv_mod, is_prime, legendre, mult_order,
                           multinomial_lucas, pow_mod, sqrt_mod)
from .fp_poly import FpPoly, SquareCofactor, gcd
from .fp_series import FpSeries, expand_rational, hypergeometric_2f1
from .kummer_galois import (GaloisResult, InvolutionReport, KummerReport,
                            TruncationRecord, compute_record, galois_degree,
                            involution_analysis, involution_constant_case,
                            predicted_cofactor, predicted_group,
                            rational_kummer_cofactor, verify_kummer_relation)
from .sequences import (CATALOG, CoefficientTable, LucasReport, SequenceSpec,
                        coefficients_mod_p, generalized, get_sequence,
                        load_external, term_exact, term_mod_p,
                        truncation_poly, verify_lucas_property)

__version__ = "0.1.0"

# There is one kernel implementation, so the backend name is fixed.  It stays
# because the `--timestamp` header prints it and perfbench records it in every
# result set, refusing to compare sets whose backends differ.
KERNEL_BACKEND = "pure"
