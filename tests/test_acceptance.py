"""Acceptance suite: one test per criterion, exact tolerances, one printed
PASS/FAIL line each (run with -s to watch them stream).

Criterion 3 checks the Domb cofactor in both sign normalizations.  The
catalog entry is the alternating sequence (-1)^n D_n; its truncations at
p = 5 mod 6 carry the cofactor 64t^2+20t+1, the discriminant of the family
quadratic x^2+(1+8t)x-t.  The unsigned Domb numbers D_n (OEIS A002895:
1, 4, 28, 256, ...) are the same truncation under t -> -t, and there the
literal constant 64t^2-20t+1 is asserted verbatim.  The map t -> -t keeps
the Galois degree, so both normalizations get the same p mod 6 label.
"""
import os
import random
import time

import pytest

from aperylike import kernels
from aperylike.finite_field import binomial_lucas
from aperylike.fp_poly import FpPoly, gcd, mul_schoolbook
from aperylike.fp_series import FpSeries
from aperylike.kummer_galois import (CASE_BOTH, CASE_NONE, CASE_ONE,
                                     galois_degree, involution_analysis,
                                     verify_kummer_relation)
from aperylike.modular_relations import (verify_H_power_identity,
                                         verify_endpoint_constant,
                                         verify_h_2f1_relation, verify_ode,
                                         verify_quadratic,
                                         verify_sigma_twist,
                                         verify_substitution)
from aperylike.pattern_miner import (LegendreProfile, mine, primes_in_range,
                                     sweep)
from aperylike.sequences import (CATALOG, coefficients_mod_p, generalized,
                                 term_exact, term_mod_p,
                                 verify_lucas_property)

PRIMES_499 = primes_in_range(5, 499)

_records_cache = {}


def records(key):
    if key not in _records_cache:
        _records_cache[key] = {rec.p: rec for rec in sweep(CATALOG[key], 5, 499)}
    return _records_cache[key]


def announce(num, ok, text):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")


def test_c01_apery_galois_labels():
    t0 = time.time()
    recs = {p: rec for p, rec in records("apery").items()}
    bad = [p for p in PRIMES_499
           if recs[p].galois.label != ("S" if p % 24 in (1, 5, 7, 11) else "FULL")]
    elapsed = time.time() - t0
    ok = not bad and elapsed < 60
    announce(1, ok, f"apery Galois label vs mod-24 rule, 93 primes ({elapsed:.1f}s)")
    assert not bad, f"label mismatches at {bad}"
    assert elapsed < 60, f"sweep took {elapsed:.1f}s (target: under 60s)"


def test_c02_apery_cofactors():
    bad = []
    for p in PRIMES_499:
        rec = records("apery")[p]
        want = (FpPoly.one(p) if p % 24 in (1, 5, 7, 11)
                else FpPoly([1, -34, 1], p).monic())
        if rec.factorization.cofactor != want:
            bad.append(p)
        if rec.factorization.expand() != rec.trunc:
            bad.append(p)
    announce(2, not bad, "apery cofactor is 1 or t^2-34t+1 per class; B re-expands")
    assert not bad, f"cofactor failures at {bad}"


def test_c03_domb_reproduction():
    # D_n = (-1)^n * catalog term: the unsigned Domb numbers of A002895
    unsigned_terms = [(-1) ** n * term_exact(CATALOG["domb"], n) for n in range(5)]
    assert unsigned_terms == [1, 4, 28, 256, 2716], unsigned_terms
    label_bad, literal_bad, expand_bad, degree_bad, validated_bad = [], [], [], [], []
    for p in PRIMES_499:
        rec = records("domb")[p]
        square = p % 6 == 1
        if rec.galois.label != ("S" if square else "FULL"):
            label_bad.append(p)
        unsigned = FpPoly([-c if n % 2 else c for n, c in enumerate(rec.trunc.coeffs)], p)
        assert [unsigned[n] for n in range(5)] == [d % p for d in unsigned_terms], p
        fact = unsigned.square_cofactor()
        want = FpPoly.one(p) if square else FpPoly([1, -20, 64], p).monic()
        if fact.cofactor != want:
            literal_bad.append(p)
        if fact.expand() != unsigned:
            expand_bad.append(p)
        if galois_degree(unsigned).degree != rec.galois.degree:
            degree_bad.append(p)
        want_alt = (FpPoly.one(p) if square
                    else verify_quadratic("domb", p).discriminant.monic())
        if rec.factorization.cofactor != want_alt:
            validated_bad.append(p)
    ok = not (label_bad or literal_bad or expand_bad or degree_bad or validated_bad)
    announce(3, ok, "domb label by p mod 6; cofactor 64t^2-20t+1 on the unsigned "
                    "truncation, 64t^2+20t+1 (family discriminant) on the alternating one")
    assert not label_bad, f"label mismatches at {label_bad}"
    assert not literal_bad, (
        "unsigned Domb truncation: cofactor is not 1 (p = 1 mod 6) or "
        f"64t^2-20t+1 (p = 5 mod 6) at {literal_bad}")
    assert not expand_bad, f"unsigned c*P*B^2 does not re-expand at {expand_bad}"
    assert not degree_bad, f"t -> -t changed the Galois degree at {degree_bad}"
    assert not validated_bad, (
        "alternating Domb cofactor is not 1 (p = 1 mod 6) or the monic "
        f"discriminant 64t^2+20t+1 of x^2+(1+8t)x-t (p = 5 mod 6) at {validated_bad}")


def test_c04_az_reproduction():
    bad = []
    for p in PRIMES_499:
        rec = records("az")[p]
        square = p % 8 in (1, 3)
        if rec.galois.label != ("S" if square else "FULL"):
            bad.append(p)
        want = FpPoly.one(p) if square else FpPoly([1, 14, 81], p).monic()
        if rec.factorization.cofactor != want:
            bad.append(p)
    announce(4, not bad, "az label by p mod 8 and cofactor 1 or 81t^2+14t+1")
    assert not bad, f"failures at {bad}"


def test_c05_twist_and_endpoint():
    bad = []
    for p in PRIMES_499:
        want = 1 if p % 6 == 1 else -1
        if verify_sigma_twist("apery", p) != want:
            bad.append(("apery", p))
        if verify_sigma_twist("domb", p) != want:
            bad.append(("domb", p))
        if verify_sigma_twist("az", p) != 1:
            bad.append(("az", p))
        if verify_endpoint_constant(p) != (1 if p % 6 == 1 else p - 1):
            bad.append(("endpoint", p))
    announce(5, not bad, "twist signs for all families and H(-1) = +/-1 by p mod 6")
    assert not bad, f"failures: {bad[:10]}"


def test_c06_ode():
    bad = [p for p in primes_in_range(5, 199) if not verify_ode(p)]
    announce(6, not bad, "second-order ODE annihilates H for 5 <= p <= 199")
    assert not bad, f"ODE fails at {bad}"


def test_c07_hypergeometric_link():
    bad = []
    for p in (7, 11, 101, 499):
        if not verify_h_2f1_relation(p, 60):
            bad.append(("link", p))
        if not verify_H_power_identity(p, max(p, 60)):
            bad.append(("power", p))
    announce(7, not bad, "2F1 link at N=60 and H-power identity at N>=p "
                         "for p in {7, 11, 101, 499}")
    assert not bad, f"failures: {bad}"


def test_c08_substitutions():
    # verify_substitution raises on identity failure, so reaching the sign
    # comparison means every family validated at both primes
    domb_signs = set()
    for p in (101, 499):
        for family in ("apery", "domb", "az"):
            res = verify_substitution(family, p, 60)
            if family == "domb":
                domb_signs.add(res.sign)
    ok = len(domb_signs) == 1
    announce(8, ok, f"substitution identities at N=60, p in {{101, 499}} "
                    f"(domb sign: {'+' if domb_signs == {1} else domb_signs})")
    assert ok


TABLE1 = {
    "a229111": (-1, (1, 22, 125)),
    "a290575": (-2, (1, -24, 16)),
    "a290576": (-1, (1, -18, -27)),
}


def test_c09_table1_mining():
    bad = []
    for key, (symbol, cofactor) in TABLE1.items():
        report = mine(CATALOG[key], 5, 499)
        if report.status != "VALIDATED" or len(report.clusters) != 2:
            bad.append((key, report.status))
            continue
        by_cof = {cl.cofactor: cl.classifier for cl in report.clusters}
        if set(by_cof) != {(1,), cofactor}:
            bad.append((key, sorted(by_cof)))
            continue
        if by_cof[(1,)] != LegendreProfile(((symbol, 1),)):
            bad.append((key, by_cof[(1,)]))
        if by_cof[cofactor] != LegendreProfile(((symbol, -1),)):
            bad.append((key, by_cof[cofactor]))
    announce(9, not bad, "table-1 sequences: two clusters classified by "
                         "(-1/p) or (-2/p), VALIDATED")
    assert not bad, f"failures: {bad}"


TABLE2 = {
    "a274786": ((-5,), {(1,): (1,), (-1,): (1, -44, -16)}),
    "a181418": ((-3, -6), {(1, 1): (1,), (-1, 1): (1, 4),
                           (1, -1): (1, -32), (-1, -1): (1, -28, -128)}),
    "a183204": ((-7,), {(1,): (1,), (-1,): (1, -26, -27)}),
    "a005260": ((-5, -10), {(1, 1): (1,), (-1, 1): (1, 4),
                            (1, -1): (1, -16), (-1, -1): (1, -12, -64)}),
}


def test_c10_table2_mining():
    bad = []
    for key, (symbols, table) in TABLE2.items():
        report = mine(CATALOG[key], 5, 499)
        if report.status != "VALIDATED" or len(report.clusters) != len(table):
            bad.append((key, report.status, len(report.clusters)))
            continue
        for cl in report.clusters:
            cls = cl.classifier
            if not isinstance(cls, LegendreProfile):
                bad.append((key, cl.cofactor, cls))
                continue
            if tuple(d for d, _ in cls.symbols) != symbols:
                bad.append((key, cl.cofactor, cls.symbols))
                continue
            signs = tuple(e for _, e in cls.symbols)
            if table[signs] != cl.cofactor:
                bad.append((key, signs, cl.cofactor))
    announce(10, not bad, "table-2 sequences: clusters and level-divisor "
                          "Legendre classifiers match exactly")
    assert not bad, f"failures: {bad}"


def test_c11_lucas_and_kummer():
    bad = []
    for key in ("apery", "domb", "az", "franel"):
        for p in (5, 7, 11, 13):
            if not verify_lucas_property(CATALOG[key], p).ok:
                bad.append(("lucas", key, p))
            if not verify_kummer_relation(CATALOG[key], p, 3 * p).ok:
                bad.append(("kummer", key, p))
    announce(11, not bad, "p-Lucas pairs below p and Kummer relation at N=3p "
                          "for the four base sequences, p in {5,7,11,13}")
    assert not bad, f"failures: {bad}"


def test_c12_involution_cases():
    bad = []
    for p in PRIMES_499:
        case = involution_analysis("apery", p)
        if p % 4 == 3:
            want = CASE_ONE
        elif p % 24 in (13, 17):
            want = CASE_NONE
        else:
            want = CASE_BOTH
        if case.case != want:
            bad.append((p, case.case, want))
        label = records("apery")[p].galois.label
        if case.fixing_admissible != (label == "S"):
            bad.append((p, "fixing", label))
    announce(12, not bad, "involution constants follow the mod-24 case list "
                          "and agree with the computed S/FULL labels")
    assert not bad, f"failures: {bad[:10]}"


def test_c13_randomized_algebra_suites():
    rng = random.Random(0xACCE97)
    failures = 0

    for _ in range(1000):  # square cofactor round-trip
        p = rng.choice([5, 7, 13, 101])
        c = rng.randrange(1, p)
        cof = _random_squarefree(rng, p, 4)
        root = _random_poly(rng, p, 4).monic()
        f = (cof * root * root).scale(c)
        failures += f.square_cofactor().expand() != f

    for _ in range(1000):  # squarefree decomposition reconstructs
        p = rng.choice([5, 7, 13])
        f = _random_poly(rng, p, 10)
        prod = FpPoly.constant(f.lc(), p)
        for g, e in f.squarefree_decomposition():
            prod = prod * g ** e
        failures += prod != f

    for i in range(1000):  # the Kronecker product agrees with schoolbook
        p = rng.choice([13, 2 ** 31 - 1])
        size = 4097 if i < 3 else rng.randrange(1, 80)
        a = [rng.randrange(p) for _ in range(size)]
        b = [rng.randrange(p) for _ in range(rng.randrange(1, size + 1))]
        failures += kernels.poly_mul(a, b, p) != mul_schoolbook(a, b, p)

    for _ in range(1000):  # series inverse and inverse square root
        p = rng.choice([5, 13, 101])
        n = rng.randrange(1, 25)
        f = FpSeries([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 1)], p)
        failures += f * f.inv() != FpSeries.one(p, n)
        g = FpSeries((1,) + f.coeffs[1:], p)
        failures += g.sqrt_inv().pow_int(2) * g != FpSeries.one(p, n)

    announce(13, failures == 0, "4 x 1000 randomized algebra cases, zero failures")
    assert failures == 0


def _random_poly(rng, p, max_deg):
    deg = rng.randrange(0, max_deg + 1)
    cs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
    return FpPoly(cs, p)


def _random_squarefree(rng, p, max_deg):
    while True:
        f = _random_poly(rng, p, max_deg)
        if f.degree <= 0:
            return FpPoly.one(p)
        if gcd(f, f.derivative()).degree == 0:
            return f.monic()


def test_c14_oracle_equivalence():
    bad = []
    for key, spec in CATALOG.items():
        exact = [term_exact(spec, n) for n in range(201)]
        for p in (5, 7, 13, 101):
            if coefficients_mod_p(spec, 201, p) != [e % p for e in exact]:
                bad.append(("bulk", key, p))
            if any(term_mod_p(spec, n, p) != exact[n] % p for n in range(201)):
                bad.append(("single", key, p))
    announce(14, not bad, "term_mod_p and bulk truncations match the exact "
                          "oracle for n <= 200, p in {5, 7, 13, 101}")
    assert not bad, f"failures: {bad}"


def test_c15_generalized_spot_checks():
    bad = []
    for p in (7, 101, 499):
        central = coefficients_mod_p(generalized(2, 0), 61, p)
        if central != [binomial_lucas(2 * n, n, p) for n in range(61)]:
            bad.append(("central", p))
        delannoy = coefficients_mod_p(generalized(1, 1), 61, p)
        series = FpSeries([1, -6, 1] + [0] * 58, p).sqrt_inv()
        if delannoy != list(series.coeffs):
            bad.append(("delannoy", p))
    announce(15, not bad, "generalized family: (2,0) = central binomials, "
                          "(1,1) = (1-6t+t^2)^(-1/2), n <= 60, three primes")
    assert not bad, f"failures: {bad}"


@pytest.mark.skipif(not os.environ.get("APERYLIKE_STRETCH"),
                    reason="stretch sweep enabled via APERYLIKE_STRETCH=1")
def test_stretch_families_to_2503():
    """Reduced version of the large-range sweep (the full run to 10^4 is a
    CLI invocation documented in the README)."""
    rules = {
        "apery": (lambda p: p % 24 in (1, 5, 7, 11), (1, -34, 1)),
        "domb": (lambda p: p % 6 == 1, (1, 20, 64)),
        "az": (lambda p: p % 8 in (1, 3), (1, 14, 81)),
    }
    for key, (is_square, quad) in rules.items():
        for rec in sweep(CATALOG[key], 500, 2503):
            p = rec.p
            want = FpPoly.one(p) if is_square(p) else FpPoly(quad, p).monic()
            assert rec.factorization.cofactor == want, (key, p)
