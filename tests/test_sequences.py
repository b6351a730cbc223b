import math

import pytest

from aperylike.cli import main
from aperylike.errors import BFileError
from aperylike.fp_series import FpSeries
from aperylike.sequences import (CATALOG, GenSum, coefficients_mod_p,
                                 generalized, get_sequence, load_external,
                                 term_exact, term_mod_p, truncation_poly,
                                 verify_lucas_property)
from tests.conftest import exact_terms, primes_between
from tests.test_golden import write_apery_bfile


class TestExactValues:
    def test_apery(self):
        assert [term_exact(CATALOG["apery"], n) for n in range(5)] == [
            1, 5, 73, 1445, 33001]

    def test_domb_alternates(self):
        domb = CATALOG["domb"]
        assert term_exact(domb, 1) == -4
        assert term_exact(domb, 2) == 28
        assert term_exact(domb, 3) == -256

    def test_az(self):
        az = CATALOG["az"]
        assert [term_exact(az, n) for n in range(6)] == [1, -3, 9, -3, -279, 2997]

    def test_franel(self):
        assert [term_exact(CATALOG["franel"], n) for n in range(4)] == [1, 2, 10, 56]

    def test_all_start_at_one(self):
        for spec in CATALOG.values():
            assert term_exact(spec, 0) == 1


# three-term recurrences provide an independent route to the same numbers
def _by_recurrence(u0, u1, coeff_n, coeff_prev, lead, count):
    out = [u0, u1]
    for n in range(1, count - 1):
        value = coeff_n(n) * out[n] + coeff_prev(n) * out[n - 1]
        div = lead(n)
        assert value % div == 0
        out.append(value // div)
    return out


class TestRecurrenceCrossChecks:
    def test_apery(self):
        want = _by_recurrence(
            1, 5,
            lambda n: (2 * n + 1) * (17 * n * n + 17 * n + 5),
            lambda n: -n ** 3,
            lambda n: (n + 1) ** 3, 40)
        assert [term_exact(CATALOG["apery"], n) for n in range(40)] == want

    def test_franel(self):
        want = _by_recurrence(
            1, 2,
            lambda n: 7 * n * n + 7 * n + 2,
            lambda n: 8 * n * n,
            lambda n: (n + 1) ** 2, 40)
        assert [term_exact(CATALOG["franel"], n) for n in range(40)] == want

    def test_domb(self):
        want = _by_recurrence(
            1, -4,
            lambda n: -2 * (2 * n + 1) * (5 * n * n + 5 * n + 2),
            lambda n: -64 * n ** 3,
            lambda n: (n + 1) ** 3, 40)
        assert [term_exact(CATALOG["domb"], n) for n in range(40)] == want

    def test_a229111(self):
        want = _by_recurrence(
            1, -5,
            lambda n: -(2 * n + 1) * (11 * n * n + 11 * n + 5),
            lambda n: -125 * n ** 3,
            lambda n: (n + 1) ** 3, 60)
        assert [term_exact(CATALOG["a229111"], n) for n in range(60)] == want


def _poly(coeffs, n):
    return sum(c * n ** i for i, c in enumerate(coeffs))


# counts that cross every kind of multiple of p: v_p = 1 (3p), v_p = 2
# (p^2 + 3) and v_p = 3 (130 > 5^3)
CROSSINGS = [(p, 3 * p) for p in (5, 13, 101)] + [(p, p * p + 3) for p in (5, 7)] + [(5, 130)]


class TestCatalogRecurrences:
    """The recurrence stored in each catalog row, run over the integers with
    exact division, against the exact sums."""

    @pytest.mark.parametrize("key", sorted(CATALOG))
    def test_matches_exact(self, key):
        rec = CATALOG[key].terms
        exact = list(exact_terms(key))
        want = _by_recurrence(
            1, rec.u1,
            lambda n: _poly(rec.b, n),
            lambda n: _poly(rec.c, n),
            lambda n: (n + 1) ** rec.k, len(exact))
        assert exact == want

    @pytest.mark.parametrize("key", sorted(CATALOG))
    def test_across_digit_boundary(self, key):
        # the recurrence is stepped mod p^N across each multiple of p; the
        # exact oracle of a290576 stops at n = 204, after both multiples of 101
        spec = CATALOG[key]
        exact = exact_terms(key)
        for p, count in CROSSINGS:
            got = coefficients_mod_p(spec, count, p)
            assert len(got) == count
            assert got[:len(exact)] == [e % p for e in exact[:count]], (p, count)


class TestModP:
    def test_examples(self):
        apery = CATALOG["apery"]
        assert term_mod_p(apery, 3, 5) == 0
        assert term_mod_p(apery, 2, 5) == 3

    def test_matches_exact_beyond_p(self):
        for key in ("apery", "domb", "az", "franel", "a229111"):
            spec = CATALOG[key]
            for p in (5, 7):
                for n in range(3 * p):
                    assert term_mod_p(spec, n, p) == term_exact(spec, n) % p, (key, p, n)

    def test_bulk_matches_single(self, tmp_path):
        # every kind of residue source: the catalog's recurrences, the
        # digit-wise sums of gen:r,s and the limbs of a b-file
        path = tmp_path / "apery.b"
        write_apery_bfile(path, 26)
        table = load_external(path)
        assert [term_exact(table, n) for n in range(26)] == list(exact_terms("apery")[:26])
        for spec in [*CATALOG.values(), generalized(2, 1), generalized(3, 2), table]:
            for p in (5, 13):
                want = [term_exact(spec, n) % p for n in range(2 * p)]
                assert coefficients_mod_p(spec, 2 * p, p) == want, (spec.key, p)
                assert [term_mod_p(spec, n, p) for n in range(2 * p)] == want, (spec.key, p)
                for count in (-1, 0):
                    assert coefficients_mod_p(spec, count, p) == [], (spec.key, p, count)
        for call, text in [(lambda: term_exact(table, 26), "index 26 out of range"),
                           (lambda: term_mod_p(table, 26, 13), "need 27"),
                           (lambda: coefficients_mod_p(table, 27, 13), "need 27")]:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"external:apery has 26 terms; {text}"


class TestTruncation:
    def test_apery_p5(self):
        assert truncation_poly(CATALOG["apery"], 5).coeffs == (1, 0, 3, 0, 1)

    def test_franel_p5(self):
        assert truncation_poly(CATALOG["franel"], 5).coeffs == (1, 2, 0, 1, 1)

    def test_constant_terms(self):
        for spec in CATALOG.values():
            for p in primes_between(5, 50):
                assert truncation_poly(spec, p)[0] == 1


class TestGeneralized:
    def test_degenerate_closed_forms(self):
        for n in range(101):
            assert term_exact(generalized(0, 0), n) == n + 1
            assert term_exact(generalized(1, 0), n) == 2 ** n
            assert term_exact(generalized(2, 0), n) == math.comb(2 * n, n)
            assert term_exact(generalized(0, 1), n) == math.comb(2 * n + 1, n + 1)

    def test_delannoy_series(self):
        # sum_k C(n,k) C(n+k,n) matches the coefficients of (1-6t+t^2)^(-1/2)
        for p in (7, 101, 499):
            series = FpSeries([1, -6, 1] + [0] * 58, p).sqrt_inv()
            got = coefficients_mod_p(generalized(1, 1), 61, p)
            assert got == list(series.coeffs)

    def test_shifted_binomial_series(self):
        # sum_k C(n+k,n) matches ((1-4x)^(-1/2) - 1) / (2x)
        p = 101
        n = 40
        sq = FpSeries([1, -4] + [0] * n, p).sqrt_inv()
        shifted = [(c * pow(2, p - 2, p)) % p for c in sq.coeffs[1:]]
        assert coefficients_mod_p(generalized(0, 1), n, p) == shifted[:n]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            generalized(-1, 2)


class TestLucasProperty:
    def test_families(self):
        for key in ("apery", "domb", "az", "franel"):
            for p in (5, 7):
                assert verify_lucas_property(CATALOG[key], p).ok

    def test_two_digit_levels(self):
        assert verify_lucas_property(CATALOG["franel"], 5, digit_levels=2).ok

    def test_counterexample_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(f"{n} {n + 1}" for n in range(60)) + "\n")
        spec = load_external(path)
        report = verify_lucas_property(spec, 7)
        assert not report.ok
        assert report.counterexample is not None
        n, l = report.counterexample
        vals = spec.terms.residues(spec.terms.size, 7)
        assert vals[n * 7 + l] != vals[n] * vals[l] % 7


def _lucas_by_digits(seq, p, digit_levels):
    """The p-Lucas property by its definition: a_i against the product of
    a_d over the base-p digits d of i, for every index i >= p in the range
    verify_lucas_property checks; the first failure as (i div p, i mod p)."""
    count = p ** (digit_levels + 1)
    if seq.terms.size is not None:
        count = min(count, seq.terms.size)
    vals = coefficients_mod_p(seq, count, p)
    for idx in range(p, count):
        expected = 1
        m = idx
        while m:
            expected = expected * vals[m % p] % p
            m //= p
        if vals[idx] != expected:
            return False, divmod(idx, p)
    return True, None


class TestLucasAgainstDigitProducts:
    # Apery b-files of p^3 terms with a(0) replaced and one value made wrong
    # (none, one below p, two between p and p^2, one past p^2 that only
    # level 2 reaches); a(0) != 1 changes the digit products of every index
    # with a zero digit
    @pytest.mark.parametrize("a0", [1, 0, 2, 3])
    @pytest.mark.parametrize("p", [5, 7])
    def test_first_counterexample(self, tmp_path, a0, p):
        for planted in (None, 2, 2 * p + 3, p * p - 1, p * p + 2 * p + 1):
            values = list(exact_terms("apery")[:p ** 3])
            values[0] = a0
            if planted is not None:
                values[planted] += 1
            path = tmp_path / f"apery-{a0}-{planted}.b"
            path.write_text("".join(f"{n} {v}\n" for n, v in enumerate(values)))
            spec = load_external(path)
            for levels in (1, 2):
                report = verify_lucas_property(spec, p, digit_levels=levels)
                want = _lucas_by_digits(spec, p, levels)
                assert (report.ok, report.counterexample) == want, (a0, planted, levels)


class TestExternal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "b005259.txt"
        path.write_text("# apery numbers\n0 1\n1 5\n2 73\n")
        spec = load_external(path)
        assert spec.key == "external:b005259"
        assert term_exact(spec, 2) == 73

    def test_gap_detected(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("0 1\n2 73\n")
        with pytest.raises(BFileError) as info:
            load_external(path)
        assert info.value.line_number == 2

    def test_bad_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 x\n")
        with pytest.raises(BFileError):
            load_external(path)

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("0 1\n1 5\n")
        spec = load_external(path)
        with pytest.raises(ValueError):
            term_exact(spec, 5)
        with pytest.raises(ValueError):
            coefficients_mod_p(spec, 5, 7)

    def test_get_sequence_forms(self, tmp_path):
        assert get_sequence("apery").key == "apery"
        assert get_sequence("gen:2,0").terms == GenSum(2, 0)
        path = tmp_path / "ext.txt"
        path.write_text("0 1\n1 3\n")
        assert get_sequence(f"@{path}").key == "external:ext"
        with pytest.raises(ValueError):
            get_sequence("nonsense")

    # int() accepts 1_000 and the non-ASCII digits; none is an ASCII integer
    @pytest.mark.parametrize("line", [
        "2 1_000", "2 --5", "2 +", "2 5-3", "2 \u0663", "2 7\uff13", "\u0662 73"])
    def test_rejects_what_is_not_an_ascii_integer(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"0 1\n1 5\n{line}\n", encoding="utf-8")
        with pytest.raises(BFileError, match="non-integer entry") as info:
            load_external(path)
        assert info.value.line_number == 3

    @pytest.mark.parametrize("line", ["1 " + "7" * 5000 + "x", "1 " + "7" * 5000 + " 2",
                                      "1" * 5000 + " 5"],
                             ids=["bad-value", "three-fields", "long-index"])
    def test_long_bad_line_is_quoted_short(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"0 1\n{line}\n")
        with pytest.raises(BFileError) as info:
            load_external(path)
        assert info.value.line_number == 2
        assert len(str(info.value)) < 140

    def test_latin1_bytes(self, tmp_path):
        # a comment may hold any bytes; a value must be ASCII, and a bad one
        # is reported with its line
        path = tmp_path / "latin1.b"
        path.write_bytes(b"# caf\xe9\n0 1\n1 5\n")
        assert coefficients_mod_p(load_external(path), 2, 7) == [1, 5]
        path.write_bytes(b"0 1\n1 5\xe9\n")
        with pytest.raises(BFileError, match="non-integer entry") as info:
            load_external(path)
        assert info.value.line_number == 2
        # the byte shows as the escape \xe9, which repr() quotes
        assert str(info.value) == "line 2: non-integer entry in '1 5\\\\xe9'"

    def test_signs_and_leading_zeros(self, tmp_path):
        path = tmp_path / "signed.txt"
        path.write_text("0 +1\n1 -5\n2 -0\n3 000073\n4 -" + "9" * 700 + "\n")
        spec = load_external(path)
        assert [term_exact(spec, n) for n in range(4)] == [1, -5, 0, 73]
        assert term_exact(spec, 4) == 1 - 10 ** 700
        assert coefficients_mod_p(spec, 5, 7) == [1, 2, 0, 3, (1 - 10 ** 700) % 7]


class TestLongValues:
    """Apery values pass 4300 digits, CPython's default limit on int(str),
    after n = 2810; the table never converts a whole value from a string."""

    TERMS = 2900

    @pytest.fixture(scope="class")
    def apery_2900(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("long") / "apery.b"
        values = write_apery_bfile(path, self.TERMS)
        return path, values

    def test_loads_past_the_limit(self, apery_2900):
        path, values = apery_2900
        assert values[-1] > 10 ** 4300
        spec = load_external(path)
        assert spec.terms.size == self.TERMS
        for n in (2811, 2850, self.TERMS - 1):
            assert term_exact(spec, n) == values[n]
        for p in (2897, 2 ** 61 - 1):
            assert coefficients_mod_p(spec, self.TERMS, p) == [v % p for v in values]
            assert term_mod_p(spec, self.TERMS - 1, p) == values[-1] % p

    def test_mine_runs(self, apery_2900, tmp_path, capsys):
        path, _ = apery_2900
        assert main(["mine", "--seq", f"@{path}", "--primes", "2880..2899",
                     "--threads", "1", "--cache", str(tmp_path / "cache.jsonl")]) == 0
        assert "VALIDATED" in capsys.readouterr().out

