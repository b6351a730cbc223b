import pytest

from aperylike import kummer_galois, sequences
from aperylike.finite_field import mult_order
from aperylike.fp_poly import FpPoly, SquareCofactor, gcd
from aperylike.kummer_galois import (CASE_BOTH, CASE_NONE, CASE_ONE,
                                     GaloisResult, certify,
                                     compute_record, galois_degree,
                                     involution_analysis,
                                     predicted_cofactor, predicted_group,
                                     verify_kummer_relation)
from aperylike.pattern_miner import sweep
from aperylike.sequences import (CATALOG, _recurrence_lead, generalized,
                                 load_external, truncation_poly)
from tests.conftest import primes_between, random_poly, random_squarefree
from tests.test_golden import write_apery_bfile


class TestKummerRelation:
    def test_apery(self):
        assert verify_kummer_relation(CATALOG["apery"], 5, 30).ok

    def test_franel(self):
        assert verify_kummer_relation(CATALOG["franel"], 7, 30).ok

    def test_all_families_default_precision(self):
        for key in ("apery", "domb", "az", "franel"):
            assert verify_kummer_relation(CATALOG[key], 11).ok

    def test_non_lucas_table_fails(self, tmp_path):
        path = tmp_path / "counting.txt"
        path.write_text("\n".join(f"{n} {n + 1}" for n in range(40)) + "\n")
        report = verify_kummer_relation(load_external(path), 5, 30)
        assert not report.ok
        assert report.mismatch is not None

    def test_precision_up_to_p_rejected(self, tmp_path):
        # a_0 = 1, so below index p the relation reads A_p = A_p and would
        # pass; index p = 11 compares a_11 = 12 with a_0 * a_1 = 2
        path = tmp_path / "counting.txt"
        path.write_text("\n".join(f"{n} {n + 1}" for n in range(60)) + "\n")
        seq = load_external(path)
        for precision in (5, 11):
            with pytest.raises(ValueError, match=f"precision {precision} <= p=11"):
                verify_kummer_relation(seq, 11, precision)
        assert verify_kummer_relation(seq, 11, 12).mismatch == 11


class TestGaloisDegree:
    def test_apery_p5_is_square_class(self):
        res = galois_degree(FpPoly([1, 0, 3, 0, 1], 5))
        assert (res.degree, res.label) == (2, "S")

    def test_apery_p13_full(self):
        rec = compute_record(CATALOG["apery"], 13)
        assert rec.galois.label == "FULL"
        assert rec.galois.degree == 12

    def test_constant_class(self):
        p = 7
        g = next(a for a in range(2, p) if mult_order(a, p) == p - 1)
        res = galois_degree(FpPoly([g], p))
        assert res.degree == p - 1 and res.label == "FULL"
        assert galois_degree(FpPoly.one(p)).degree == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            galois_degree(FpPoly.zero(5))

    def test_square_class_invariant_under_square_multiples(self, rng):
        # multiplying by B^2 preserves the class of A modulo squares (the
        # quantity the S/FULL dichotomy reads off), though not the exact
        # Kummer order: squares need not be (p-1)-th powers
        for _ in range(40):
            p = rng.choice([13, 17])
            a = random_poly(rng, p, 6, nonzero=True)
            b = random_poly(rng, p, 3, nonzero=True)
            before = (p - 1) // galois_degree(a).degree % 2
            after = (p - 1) // galois_degree(a * b * b).degree % 2
            assert before == after

    def test_degree_invariant_under_full_power_multiples(self, rng):
        for _ in range(20):
            p = 13
            a = random_poly(rng, p, 5, nonzero=True)
            b = random_poly(rng, p, 1, nonzero=True)
            assert galois_degree(a * b ** (p - 1)).degree == galois_degree(a).degree

    @pytest.mark.parametrize("key", ["apery", "domb", "az", "a005260", "franel"])
    def test_record_decomposes_once(self, key, monkeypatch):
        calls = []
        original = FpPoly.squarefree_decomposition

        def counting(self):
            calls.append(self.p)
            return original(self)

        for p in (5, 13, 31, 101):
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(FpPoly, "squarefree_decomposition", counting)
                rec = compute_record(CATALOG[key], p)
            # none where certify proves P = 1 or gcd(A, L), else one for
            # both results (franel's A is squarefree: always one)
            guess = gcd(rec.trunc, FpPoly(CATALOG[key].lead, p))
            certified = (certify(rec.trunc, FpPoly.one(p))
                         or guess.degree > 0 and certify(rec.trunc, guess))
            assert calls == ([] if certified else [p])
            if key == "franel":
                assert calls == [p]
            assert rec.factorization == rec.trunc.square_cofactor()
            assert rec.galois == galois_degree(rec.trunc)

    def test_degree_times_exponent(self):
        for p in primes_between(5, 60):
            res = galois_degree(compute_record(CATALOG["apery"], p).trunc)
            assert (p - 1) % res.degree == 0


def decomposed(a):
    """The factorization and degree from the squarefree decomposition: the
    oracle ``certify`` must agree with whenever it returns."""
    parts = a.squarefree_decomposition()
    return SquareCofactor.from_parts(a, parts), GaloisResult.from_parts(a, parts)


class TestCertify:
    def test_true_cofactor_certified(self):
        for p in (13, 101):
            b = FpPoly([3, 1, 0, 2, 1], p)
            for cofactor in (FpPoly.one(p), FpPoly([2, 5, 1], p)):
                a = (cofactor * b * b).scale(7)
                assert certify(a, cofactor) == decomposed(a)

    def test_fourth_power_needs_the_witness_step(self):
        # A = c * C^4: P = 1 and B = C^2, a square, so no point witnesses
        # l = 2 | (p-1)/2 and the degree comes from the decomposition
        p, c = 13, 3
        root = FpPoly([2, 1, 1], p)
        a = (root ** 4).scale(c)
        fact, gal = decomposed(a)
        assert fact.cofactor == 1 and fact.root == root ** 2
        assert (p - 1) // gal.degree == 4  # P = 1 with e = 1 would give 2
        assert certify(a, FpPoly.one(p)) is None

    def test_odd_power_needs_gcd_of_cofactor_and_root(self):
        # the gen:1,1 shape A = g^((p-1)/2) with (p-1)/2 odd: P = g, B = g^2
        p = 11
        g = FpPoly([3, 0, 1], p)
        a = g ** ((p - 1) // 2)
        fact, gal = decomposed(a)
        assert fact.cofactor == g
        assert gal.degree == 2  # the exact check alone would claim p - 1
        assert certify(a, g) is None

    def test_zero_constant_term_rejected(self):
        p = 13
        a = FpPoly([0, 1], p) * FpPoly([1, 1], p) ** 2
        assert all(certify(a, cand) is None
                   for cand in (FpPoly.one(p), FpPoly([0, 1], p), decomposed(a)[0].cofactor))

    def test_constant_rejected(self):
        p = 13
        assert certify(FpPoly([5], p), FpPoly.one(p)) is None

    def test_constant_root_rejected(self):
        p = 13
        cofactor = FpPoly([1, 0, 1], p) * FpPoly([3, 1], p)
        a = cofactor.scale(2)
        assert decomposed(a)[0] == SquareCofactor(2, cofactor, FpPoly.one(p))
        assert certify(a, cofactor) is None

    def test_cofactor_sharing_a_root_with_the_root(self):
        # A = (t-1)^3 (t-2)^6: P = t-1 and B = (t-1)(t-2)^3 share the root 1,
        # so the multiplicity gcd is 3, not 1, and the degree is 2, not 6
        p = 7
        a = FpPoly([-1, 1], p) ** 3 * FpPoly([-2, 1], p) ** 6
        fact, gal = decomposed(a)
        assert fact == SquareCofactor(1, FpPoly([-1, 1], p),
                                      FpPoly([-1, 1], p) * FpPoly([-2, 1], p) ** 3)
        assert gal.degree == 2
        assert certify(a, FpPoly([-1, 1], p)) is None

    def test_never_contradicts_the_decomposition(self, rng):
        # certify has no pre-filter: only the exact checks reject a wrong guess
        certified = 0
        for _ in range(300):
            p = rng.choice((5, 13, 17, 29, 31))
            cofactor = random_squarefree(rng, p, 3)
            root = random_poly(rng, p, 4, nonzero=True)
            a = (cofactor * root * root).scale(rng.randrange(1, p))
            for cand in (cofactor, FpPoly.one(p), random_squarefree(rng, p, 3),
                         random_poly(rng, p, 3, nonzero=True)):
                got = certify(a, cand)
                if got is not None:
                    assert got == decomposed(a)
                    assert got[0].cofactor == cand.monic()
                    certified += 1
        assert certified > 100


class TestRecurrenceGuess:
    @pytest.mark.parametrize("p", [29, 101, 499])
    def test_leading_polynomial_of_the_recurrence(self, p):
        # the oracle is the row's own recurrence data: 1 - beta t - gamma t^2
        # with beta, gamma the leading coefficients of b(n) and c(n); the L
        # that compute_record reduces mod p, and the one the finder gets from
        # the row's exact values alone, are both it up to a unit mod p
        for key, seq in CATALOG.items():
            want = FpPoly([1, -seq.terms.b[-1], -seq.terms.c[-1]], p).monic()
            assert FpPoly(seq.lead, p).monic() == want, key
            assert FpPoly(_recurrence_lead(seq.exact), p).monic() == want, key

    def test_row_agrees_with_elimination(self):
        # the oracle is the row's own recurrence data: 1 - beta t - gamma t^2
        # with beta, gamma the coefficients of n^k in b(n) and c(n); the
        # elimination sees only the row's first exact values, and both agree
        # over the integers, so reading the wrong entry of a row's tuples fails
        for key, seq in CATALOG.items():
            assert _recurrence_lead(seq.exact) == seq.lead, key

    def test_generalized_apery(self):
        assert generalized(2, 2).lead == CATALOG["apery"].lead

    def test_no_guess_without_a_recurrence(self, rng, tmp_path):
        values = [rng.randrange(10 ** 6) for _ in range(40)]
        assert _recurrence_lead(values.__getitem__, len(values)) is None
        assert generalized(3, 2).lead is None  # no order-2 recurrence of degree <= 3
        # the 20 equations read 22 values
        for terms, want in ((21, None), (22, CATALOG["apery"].lead)):
            path = tmp_path / f"apery{terms}.b"
            write_apery_bfile(path, terms)
            assert load_external(path).lead == want, terms

    def test_bfile_record_without_decomposition(self, tmp_path, monkeypatch):
        # FULL-class primes of a b-file: the parent's elimination mod p had
        # too few equations at 13 and 17, and before gcd(A, L) 109 had no
        # lift to guess from, so each was decomposed; L found once from the
        # table certifies all three
        path = tmp_path / "apery.b"
        write_apery_bfile(path, 120)
        seq = load_external(path)
        calls = []
        original = FpPoly.squarefree_decomposition

        def counting(self):
            calls.append(self.p)
            return original(self)

        for p in (13, 17, 109):
            want = decomposed(truncation_poly(seq, p))
            with monkeypatch.context() as m:
                m.setattr(FpPoly, "squarefree_decomposition", counting)
                rec = compute_record(seq, p)
            assert calls == [], p
            assert (rec.factorization, rec.galois) == want
            assert rec.factorization.cofactor == FpPoly([1, -34, 1], p)

    def test_lead_found_once_per_sequence(self, tmp_path, monkeypatch):
        calls = []
        original = sequences._recurrence_lead

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sequences, "_recurrence_lead", counting)
        path = tmp_path / "apery.b"
        write_apery_bfile(path, 120)
        seq = load_external(path)
        assert len(calls) == 1
        records = sweep(seq, 5, 100, threads=1)
        assert len(calls) == 1 and len(records) == 23


class TestPredictions:
    def test_group_examples(self):
        assert predicted_group("apery", 5) == "S"
        assert predicted_group("apery", 13) == "FULL"
        assert predicted_group("az", 11) == "S"
        assert predicted_group("domb", 7) == "S"

    def test_square_classes_as_stated(self):
        # the paper's square classes, written out per family
        stated = {"apery": lambda p: p % 24 in (1, 5, 7, 11),
                  "domb": lambda p: p % 6 == 1,
                  "az": lambda p: p % 8 in (1, 3)}
        for p in primes_between(5, 5000):
            for family, square in stated.items():
                assert (predicted_group(family, p) == "S") == square(p), (family, p)

    def test_cofactor_examples(self):
        assert predicted_cofactor("apery", 13) == FpPoly([1, 5, 1], 13)
        assert predicted_cofactor("domb", 7) == FpPoly.one(7)
        assert predicted_cofactor("az", 5) == FpPoly([1, 14, 81], 5).monic()

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            predicted_group("franel", 7)


class TestInvolutionCases:
    def test_apery_case_table(self):
        for p in primes_between(5, 499):
            case = involution_analysis("apery", p).case
            if p % 4 == 3:
                assert case == CASE_ONE
            elif p % 24 in (13, 17):
                assert case == CASE_NONE
            else:
                assert p % 24 in (1, 5)
                assert case == CASE_BOTH

    def test_domb_case_table(self):
        for p in primes_between(5, 499):
            case = involution_analysis("domb", p).case
            want = {1: CASE_BOTH, 5: CASE_NONE, 7: CASE_ONE, 11: CASE_ONE}[p % 12]
            assert case == want

    def test_az_case_table(self):
        for p in primes_between(5, 499):
            case = involution_analysis("az", p).case
            want = {1: CASE_BOTH, 3: CASE_ONE, 5: CASE_NONE, 7: CASE_ONE}[p % 8]
            assert case == want

    def test_fixing_constant_decides_square_class(self):
        # the series is fixed by a prolongation exactly when the family's
        # fixing constant is admissible; that must match the predicted label
        for family in ("apery", "domb", "az"):
            for p in primes_between(5, 199):
                report = involution_analysis(family, p)
                assert report.fixing_admissible == (predicted_group(family, p) == "S")


class TestRecordSerialization:
    def test_roundtrip(self):
        rec = compute_record(CATALOG["apery"], 13)
        data = rec.to_json_dict()
        back = rec.from_json_dict(data, CATALOG["apery"])
        assert back == rec
        assert back.trunc == rec.trunc
        assert back.factorization.cofactor == rec.factorization.cofactor
        assert back.galois.degree == rec.galois.degree
        assert back.predicted_label == rec.predicted_label
        assert rec.matches_prediction

    def test_prediction_only_for_families(self):
        rec = compute_record(CATALOG["franel"], 13)
        assert rec.predicted_label is None
        assert rec.matches_prediction is None
