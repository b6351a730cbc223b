import json
import logging

import pytest

from aperylike import pattern_miner
from aperylike.fp_poly import FpPoly, SquareCofactor
from aperylike.kummer_galois import GaloisResult, TruncationRecord, compute_record
from aperylike.pattern_miner import (AlwaysTrue, CongruenceClass,
                                     LegendreProfile, classifier_from_json,
                                     cluster_records, infer_conditions,
                                     lift_cofactor, mine, poly_str,
                                     primes_in_range, read_cache,
                                     report_table, sweep)
from aperylike.sequences import CATALOG


class TestPrimesInRange:
    def test_filters_and_floors(self):
        assert primes_in_range(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_in_range(2, 10) == [5, 7]
        assert primes_in_range(100, 99) == []

    def test_count_to_100(self):
        assert len(primes_in_range(5, 100)) == 23


class TestLift:
    def test_trivial(self):
        lift = lift_cofactor(FpPoly.one(13), 13)
        assert lift.coeffs == (1,) and lift.reliable

    def test_symmetric_representatives(self):
        # monic t^2+5t+1 at p=13: symmetric lift keeps 5 (not -34)
        lift = lift_cofactor(FpPoly([1, 5, 1], 13), 13)
        assert lift.coeffs == (1, 5, 1)
        assert lift.normalization == "constant"

    def test_large_prime_reliable(self):
        p = 499
        lift = lift_cofactor(FpPoly([1, -34, 1], p).monic(), p)
        assert lift.coeffs == (1, -34, 1) and lift.reliable

    def test_monic_fallback_for_vanishing_constant(self):
        lift = lift_cofactor(FpPoly([0, 1], 13), 13)
        assert lift.normalization == "monic"
        assert lift.coeffs == (0, 1)


class TestClassifiers:
    def test_legendre(self):
        cls = LegendreProfile(((-6, 1),))
        assert cls.matches(5) is True and cls.matches(13) is False

    def test_legendre_ramified(self):
        cls = LegendreProfile(((-5, 1),))
        assert cls.matches(5) is None

    def test_congruence(self):
        cls = CongruenceClass(24, (1, 5, 7, 11))
        assert cls.matches(29) is True and cls.matches(13) is False

    def test_json_roundtrip(self):
        for cls in (LegendreProfile(((-3, 1), (-6, -1))),
                    CongruenceClass(8, (1, 3)), AlwaysTrue()):
            assert classifier_from_json(cls.to_json()) == cls


def _fake_record(p, cofactor_ints):
    cof = FpPoly(cofactor_ints, p)
    trunc = cof  # content unused by clustering beyond the factorization
    fact = SquareCofactor(1, cof.monic(), FpPoly.one(p))
    gal = GaloisResult(p=p, degree=p - 1, kummer_exponent=1)
    return TruncationRecord(seq="fake", p=p, trunc=trunc, factorization=fact, galois=gal)


class TestClustering:
    def test_apery_range(self):
        records = [compute_record(CATALOG["apery"], p) for p in primes_in_range(5, 499)]
        clusters, unmatched = cluster_records(records)
        assert not unmatched
        assert [c.coeffs for c in clusters] == [(1,), (1, -34, 1)]
        assert sum(len(c.primes) for c in clusters) == len(records)
        # small primes land in the right cluster via candidate reduction
        assert 13 in clusters[1].primes

    def test_small_prime_ambiguity_resolved_downward(self):
        # a candidate discovered at a big prime absorbs a small-prime record
        records = [_fake_record(499, [1, -34, 1]), _fake_record(13, [1, 5, 1])]
        clusters, unmatched = cluster_records(records)
        assert not unmatched
        assert len(clusters) == 1
        assert clusters[0].coeffs == (1, -34, 1)
        assert clusters[0].primes == [13, 499]

    def test_unmatched_tentative_flagged(self):
        # only a tiny prime: height of the lift forbids seeding a candidate
        records = [_fake_record(5, [1, 3, 4])]
        clusters, unmatched = cluster_records(records)
        assert unmatched == [5]
        assert not clusters


class TestInference:
    def test_single_cluster_trivial(self):
        records = [_fake_record(p, [1]) for p in (5, 7, 11)]
        clusters, unmatched = cluster_records(records)
        report = infer_conditions("fake", clusters, unmatched, 5, 11)
        assert report.status == "VALIDATED"
        assert isinstance(report.clusters[0].classifier, AlwaysTrue)

    def test_apery_classifier_equivalent_to_mod24(self):
        report = mine(CATALOG["apery"], 5, 499)
        assert report.status == "VALIDATED"
        for cl in report.clusters:
            s_cluster = cl.cofactor == (1,)
            for p in cl.primes:
                assert cl.classifier.matches(p) is True
                assert (p % 24 in (1, 5, 7, 11)) == s_cluster

    def test_unresolved_reports_exceptions(self):
        # partition by p mod 7 is outside the classifier language
        ps = primes_in_range(5, 200)
        records = [_fake_record(p, [1] if p % 7 < 3 else [1, 1]) for p in ps]
        clusters, unmatched = cluster_records(records)
        report = infer_conditions("fake", clusters, unmatched, 5, 200)
        assert report.status == "UNRESOLVED"
        assert any(cl.exceptions for cl in report.clusters)


class TestSweepCache:
    def test_cache_roundtrip(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        first = sweep(CATALOG["apery"], 5, 60, cache_path=cache)
        assert cache.exists()
        second = sweep(CATALOG["apery"], 5, 60, cache_path=cache)
        assert [r.to_json_dict() for r in first] == [r.to_json_dict() for r in second]
        # file did not grow on the second (fully cached) sweep
        lines = cache.read_text().strip().splitlines()
        assert len(lines) == len(first)

    def test_corrupt_lines_skipped(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        sweep(CATALOG["apery"], 5, 30, cache_path=cache)
        with open(cache, "a") as fh:
            fh.write("{ not json }\n")
            fh.write(json.dumps({"seq": "apery", "p": 999}) + "\n")
            for value in ([1, 2], None, 3, "apery"):  # valid JSON, not an object
                fh.write(json.dumps(value) + "\n")
        loaded = read_cache(cache, "apery")
        assert sorted(loaded) == primes_in_range(5, 30)

    def test_impossible_degree_skipped(self, tmp_path, caplog):
        cache = tmp_path / "cache.jsonl"
        clean = [r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 30)]
        sweep(CATALOG["apery"], 5, 30, cache_path=cache)
        tampered = [json.loads(line) for line in cache.read_text().splitlines()]
        for data in tampered:
            if data["p"] == 7:
                data["degree"] = 0
            if data["p"] == 11:
                data["degree"] = 3  # does not divide p-1 = 10
        cache.write_text("".join(json.dumps(data) + "\n" for data in tampered))
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            loaded = read_cache(cache, "apery")
        assert sorted(loaded) == [p for p in primes_in_range(5, 30) if p not in (7, 11)]
        assert caplog.text.count("skipping corrupt cache line") == 2
        assert [r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 30, cache_path=cache)] == clean
        # the two recomputed records were appended
        assert len(cache.read_text().splitlines()) == len(tampered) + 2

    def test_invalid_prime_skipped(self, tmp_path, caplog):
        cache = tmp_path / "cache.jsonl"
        clean = [r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 30)]
        sweep(CATALOG["apery"], 5, 30, cache_path=cache)
        tampered = [json.loads(line) for line in cache.read_text().splitlines()]
        bad_p = {7: 0, 11: 3, 13: 4}
        for i, data in enumerate(tampered):
            if data["p"] in bad_p:
                # consistent under the bad modulus: A = c*P*B^2 = 1, degree 1
                tampered[i] = dict(data, p=bad_p[data["p"]], A=[1], c=1, P=[1], B=[1],
                                   degree=1)
        cache.write_text("".join(json.dumps(data) + "\n" for data in tampered))
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            loaded = read_cache(cache, "apery")
        assert sorted(loaded) == [p for p in primes_in_range(5, 30) if p not in bad_p]
        assert caplog.text.count("skipping corrupt cache line") == 3
        assert [r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 30, cache_path=cache)] == clean
        assert len(cache.read_text().splitlines()) == len(tampered) + 3

    def test_tampered_factorization_skipped(self, tmp_path, caplog):
        cache = tmp_path / "cache.jsonl"
        clean = [r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 30)]
        sweep(CATALOG["apery"], 5, 30, cache_path=cache)
        tampered = [json.loads(line) for line in cache.read_text().splitlines()]
        for data in tampered:
            p = data["p"]
            if p == 13:  # P = t^2 - 34t + 1, doubled
                data["P"] = [2 * c % p for c in data["P"]]
            if p == 17:  # B stays monic, c*P*B^2 no longer equals A
                data["B"][0] = (data["B"][0] + 1) % p
            if p == 29:  # a factor g of B moved into P as g^2: c*P*B^2 == A
                root = FpPoly(data["B"], p)
                g = root.squarefree_decomposition()[0][0]
                data["P"] = list((FpPoly(data["P"], p) * g * g).coeffs)
                data["B"] = list((root // g).coeffs)
            if p == 19:  # the zero truncation: c*P*B^2 == A == 0
                data.update(A=[], c=0, P=[1], B=[1])
            if p == 23:  # c not reduced mod p: c*P*B^2 == A mod p
                data["c"] += p
        cache.write_text("".join(json.dumps(data) + "\n" for data in tampered))
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            loaded = read_cache(cache, "apery")
        bad = (13, 17, 19, 23, 29)
        assert sorted(loaded) == [p for p in primes_in_range(5, 30) if p not in bad]
        assert caplog.text.count("skipping corrupt cache line") == 5
        for reason in ("must be monic", "does not re-expand", "not squarefree"):
            assert caplog.text.count(reason) == 1
        assert caplog.text.count("is not in 1..") == 2
        assert [r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 30, cache_path=cache)] == clean
        assert len(cache.read_text().splitlines()) == len(tampered) + 5

    def test_cache_isolates_sequences(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        sweep(CATALOG["apery"], 5, 30, cache_path=cache)
        assert read_cache(cache, "franel") == {}

    def test_subrange_reuses_cache(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        sweep(CATALOG["apery"], 5, 60, cache_path=cache)
        part = sweep(CATALOG["apery"], 20, 40, cache_path=cache)
        assert [r.p for r in part] == primes_in_range(20, 40)

    def test_stale_hit_recomputed_once(self, tmp_path, monkeypatch, caplog):
        cache = tmp_path / "cache.jsonl"
        fresh = {r.p: r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 60, cache_path=cache)}
        tampered = [json.loads(line) for line in cache.read_text().splitlines()]
        for data in tampered:
            data["degree"] = 1  # the true degree is (p-1)/2 or p-1
        cache.write_text("".join(json.dumps(data) + "\n" for data in tampered))

        calls = []

        def counting(seq, p):
            calls.append(p)
            return compute_record(seq, p)

        monkeypatch.setattr(pattern_miner, "compute_record", counting)
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            out = {r.p: r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 60, cache_path=cache)}
        # 15 cached primes: the spot check samples exactly one
        assert len(calls) == 1
        sampled = calls[0]
        assert out[sampled] == fresh[sampled]
        assert all(out[p]["degree"] == 1 for p in out if p != sampled)
        assert f"cached record at p={sampled} is stale" in caplog.text


class TestDeterminism:
    def test_threads_do_not_change_output(self):
        serial = mine(CATALOG["apery"], 5, 100, threads=1)
        parallel = mine(CATALOG["apery"], 5, 100, threads=3)
        assert report_table(serial, "json") == report_table(parallel, "json")

    def test_cache_does_not_change_output(self, tmp_path):
        cold = mine(CATALOG["az"], 5, 80)
        warm_path = tmp_path / "c.jsonl"
        mine(CATALOG["az"], 5, 80, cache_path=warm_path)
        warm = mine(CATALOG["az"], 5, 80, cache_path=warm_path)
        assert report_table(cold, "json") == report_table(warm, "json")


@pytest.fixture(scope="module")
def report():
    return mine(CATALOG["apery"], 5, 120)


class TestReportFormats:

    def test_json_schema(self, report):
        data = json.loads(report_table(report, "json"))
        assert set(data) >= {"seq", "range", "clusters", "status"}
        assert data["range"] == [5, 120]
        for cl in data["clusters"]:
            assert set(cl) >= {"cofactor", "classifier", "primes", "exceptions"}

    def test_csv_header(self, report):
        lines = report_table(report, "csv").splitlines()
        assert lines[0] == "seq,lo,hi,status,cofactor,classifier,primes,exceptions"
        assert len(lines) == 1 + len(report.clusters)

    def test_text(self, report):
        text = report_table(report, "text")
        assert "VALIDATED" in text

    def test_empty_range(self):
        report = mine(CATALOG["apery"], 80, 82)
        assert report.status == "VALIDATED"
        assert report.clusters == ()

    def test_poly_str(self):
        assert poly_str((1, -34, 1)) == "1 - 34*t + t^2"
        assert poly_str((1,)) == "1"
        assert poly_str((0, 1)) == "t"
