import concurrent.futures
import json
import logging
import os
import pickle
import random
import subprocess
import sys

import pytest

from aperylike import cli, kummer_galois, pattern_miner
from aperylike.fp_poly import FpPoly, SquareCofactor
from aperylike.kummer_galois import (GaloisResult, TruncationRecord, certify,
                                     compute_record, galois_degree)
from aperylike.pattern_miner import (AlwaysTrue, ClusterReport, CongruenceClass,
                                     LegendreProfile, PatternReport, cluster_records,
                                     infer_conditions, lift_cofactor, mine,
                                     poly_str, primes_in_range, read_cache,
                                     report_table, sweep)
from aperylike.sequences import CATALOG, get_sequence, load_external, truncation_poly
from tests.conftest import exact_terms
from tests.test_golden import write_apery_bfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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

    def test_to_json(self):
        assert LegendreProfile(((-3, 1), (-6, -1))).to_json() == {
            "kind": "legendre", "symbols": [[-3, 1], [-6, -1]]}
        assert CongruenceClass(8, (1, 3)).to_json() == {
            "kind": "congruence", "modulus": 8, "residues": [1, 3]}
        assert AlwaysTrue().to_json() == {"kind": "always"}


def _fake_record(p, cofactor_ints):
    cof = FpPoly(cofactor_ints, p)
    trunc = cof  # content unused by clustering beyond the factorization
    fact = SquareCofactor(1, cof.monic(), FpPoly.one(p))
    gal = GaloisResult(p=p, degree=p - 1)
    return TruncationRecord(seq="fake", p=p, trunc=trunc, factorization=fact, galois=gal)


class TestClustering:
    def test_apery_range(self):
        records = [compute_record(CATALOG["apery"], p) for p in primes_in_range(5, 499)]
        clusters, unmatched = cluster_records(records)
        assert not unmatched
        assert [c.cofactor for c in clusters] == [(1,), (1, -34, 1)]
        assert sum(len(c.primes) for c in clusters) == len(records)
        # small primes land in the right cluster via candidate reduction
        assert 13 in clusters[1].primes

    def test_small_prime_ambiguity_resolved_downward(self):
        # a candidate discovered at a big prime absorbs a small-prime record
        records = [_fake_record(499, [1, -34, 1]), _fake_record(13, [1, 5, 1])]
        clusters, unmatched = cluster_records(records)
        assert not unmatched
        assert len(clusters) == 1
        assert clusters[0].cofactor == (1, -34, 1)
        assert clusters[0].primes == (13, 499)

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

    def test_trials_built_on_demand(self, monkeypatch):
        # (-3/p) separates the two clusters, so the search stops at that single
        # symbol and builds none of the pairs
        made = []

        class Counted(LegendreProfile):
            def __init__(self, symbols):
                made.append(symbols)
                super().__init__(symbols)

        monkeypatch.setattr(pattern_miner, "LegendreProfile", Counted)
        ps = primes_in_range(5, 200)
        records = [_fake_record(p, [1] if p % 3 == 1 else [1, 1]) for p in ps]
        clusters, unmatched = cluster_records(records)
        report = infer_conditions("fake", clusters, unmatched, 5, 200)
        assert report.status == "VALIDATED"
        assert [cl.classifier.symbols for cl in report.clusters] == [((-3, 1),), ((-3, -1),)]
        assert made[-2:] == [((-3, 1),), ((-3, -1),)]
        assert all(len(symbols) == 1 for symbols in made)

    def test_no_clusters_unresolved(self):
        # nothing was mined, so nothing was validated
        report = infer_conditions("fake", [], [], 5, 11)
        assert report.status == "UNRESOLVED"
        assert report.clusters == ()

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
        loaded = read_cache(cache, CATALOG["apery"], primes_in_range(5, 30))
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
            loaded = read_cache(cache, CATALOG["apery"], primes_in_range(5, 30))
        assert sorted(loaded) == [p for p in primes_in_range(5, 30) if p not in (7, 11)]
        assert caplog.text.count("skipping corrupt cache line") == 2
        assert [r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 30, cache_path=cache)] == clean
        # the two recomputed records were appended
        assert len(cache.read_text().splitlines()) == len(tampered) + 2

    def test_wrong_divisor_degree_recomputed(self, tmp_path, caplog):
        # at p = 13 Apery's A has degree 12 (FULL); a line claiming degree 6
        # and label S divides p-1 and passes every other check, so the
        # degree must be proved from the line's P and B, not trusted
        cache = tmp_path / "cache.jsonl"
        clean = [r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 30)]
        tampered = [dict(data) for data in clean]
        for data in tampered:
            if data["p"] == 13:
                assert (data["degree"], data["label"]) == (12, "FULL")
                data.update(degree=6, label="S")
        cache.write_text("".join(json.dumps(data) + "\n" for data in tampered))
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            loaded = read_cache(cache, CATALOG["apery"], primes_in_range(5, 30))
            out = [r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 30, cache_path=cache)]
        assert sorted(loaded) == [p for p in primes_in_range(5, 30) if p != 13]
        assert "degree 6 is not the degree 12 of A" in caplog.text
        assert out == clean
        # the recomputed record is appended, so the last line for p = 13 wins
        assert json.loads(cache.read_text().splitlines()[-1]) == out[3]

    def test_degree_of_a_shared_root_not_trusted(self, tmp_path, caplog):
        # A = (t-1)^3 (t-2)^6 at p = 13 has degree 4; P = t-1 and
        # B = (t-1)(t-2)^3 re-expand to A, but P shares a root with B, so a
        # claimed degree 12 (multiplicity gcd 1) must not be proved from them.
        # A 13-term table holding A's coefficients makes A its truncation.
        p = 13
        P, B = FpPoly([-1, 1], p), FpPoly([-1, 1], p) * FpPoly([-2, 1], p) ** 3
        a = P * B * B
        table = tmp_path / "x.b"
        table.write_text("".join(f"{n} {a[n]}\n" for n in range(p)))
        seq = load_external(table)
        assert truncation_poly(seq, p) == a
        line = {"seq": seq.key, "p": p, "A": list(a.coeffs), "c": 1,
                "P": list(P.coeffs), "B": list(B.coeffs), "degree": 12, "label": "FULL"}
        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps(line) + "\n")
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            assert read_cache(cache, seq, [p]) == {}
        assert "degree 12 is not the degree 4 of A" in caplog.text

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
            loaded = read_cache(cache, CATALOG["apery"], primes_in_range(5, 30))
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
            loaded = read_cache(cache, CATALOG["apery"], primes_in_range(5, 30))
        bad = (13, 17, 19, 23, 29)
        assert sorted(loaded) == [p for p in primes_in_range(5, 30) if p not in bad]
        assert caplog.text.count("skipping corrupt cache line") == 5
        for reason in ("must be monic", "does not re-expand", "not squarefree"):
            assert caplog.text.count(reason) == 1
        assert caplog.text.count("is not in 1..") == 2
        assert [r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 30, cache_path=cache)] == clean
        assert len(cache.read_text().splitlines()) == len(tampered) + 5

    @pytest.mark.parametrize("field,value", [
        ("c", 1.9), ("c", True), ("degree", 12.5), ("degree", "12"),
        ("p", "13"), ("p", 13.6), ("A", "+0.5"), ("P", "float"), ("B", "float"),
    ], ids=["c-float", "c-bool", "degree-float", "degree-str", "p-str", "p-float",
            "A-halves", "P-floats", "B-floats"])
    def test_non_integer_number_skipped(self, tmp_path, caplog, field, value):
        cache = tmp_path / "cache.jsonl"
        clean = [r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 30)]
        sweep(CATALOG["apery"], 5, 30, cache_path=cache)
        tampered = [json.loads(line) for line in cache.read_text().splitlines()]
        for data in tampered:
            if data["p"] != 13:
                continue
            if value == "+0.5":
                data[field] = [c + 0.5 for c in data[field]]
            elif value == "float":
                data[field] = [float(c) for c in data[field]]
            else:
                # each value coerces by int() to the clean one (c = 1, degree 12)
                assert int(value) == data[field]
                data[field] = value
        cache.write_text("".join(json.dumps(data) + "\n" for data in tampered))
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            loaded = read_cache(cache, CATALOG["apery"], primes_in_range(5, 30))
        assert sorted(loaded) == [p for p in primes_in_range(5, 30) if p != 13]
        assert caplog.text.count("skipping corrupt cache line") == 1
        assert "is not an integer" in caplog.text
        assert [r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 30, cache_path=cache)] == clean
        assert len(cache.read_text().splitlines()) == len(tampered) + 1

    def test_cache_isolates_sequences(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        sweep(CATALOG["apery"], 5, 30, cache_path=cache)
        assert read_cache(cache, CATALOG["franel"], primes_in_range(5, 30)) == {}

    def test_subrange_reuses_cache(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        sweep(CATALOG["apery"], 5, 60, cache_path=cache)
        part = sweep(CATALOG["apery"], 20, 40, cache_path=cache)
        assert [r.p for r in part] == primes_in_range(20, 40)

    def test_reads_only_the_swept_primes(self, tmp_path, monkeypatch):
        # the 93 lines of 5..500 are in the cache; a sweep of 5..60 rebuilds
        # only its own 15 records, and its output is the cold sweep's
        cache = tmp_path / "cache.jsonl"
        sweep(CATALOG["apery"], 5, 500, cache_path=cache)
        calls = []
        original = TruncationRecord.from_json_dict.__func__

        def counting(cls, data, seq):
            calls.append(data["p"])
            return original(cls, data, seq)

        monkeypatch.setattr(TruncationRecord, "from_json_dict", classmethod(counting))
        part = sweep(CATALOG["apery"], 5, 60, cache_path=cache)
        assert sorted(calls) == primes_in_range(5, 60)
        assert part == sweep(CATALOG["apery"], 5, 60)

    def test_stale_hit_recomputed_once(self, tmp_path, monkeypatch, caplog):
        cache = tmp_path / "cache.jsonl"
        fresh = {r.p: r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 60)}
        # the Domb records filed under apery: each line is self-consistent,
        # but its A is not Apery's truncation
        tampered = [dict(r.to_json_dict(), seq="apery") for r in sweep(CATALOG["domb"], 5, 60)]
        cache.write_text("".join(json.dumps(data) + "\n" for data in tampered))

        calls = []

        def counting(seq, p):
            calls.append(p)
            return compute_record(seq, p)

        monkeypatch.setattr(pattern_miner, "compute_record", counting)
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            out = {r.p: r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 60, cache_path=cache)}
        # every line is rejected by the reader and recomputed once, like an
        # uncached prime; no hit is left for the spot check to sample
        assert out == fresh
        assert calls == sorted(fresh)
        for p in fresh:
            assert (f"skipping corrupt cache line (A is not the truncation of apery at p={p})"
                    in caplog.text)
        assert "is stale" not in caplog.text

    def test_spot_check_replaces_a_stale_hit(self, tmp_path, monkeypatch, caplog):
        # every line is Apery's own, so only a compute_record that disagrees
        # with the cache can make the sampled hit stale
        cache = tmp_path / "cache.jsonl"
        sweep(CATALOG["apery"], 5, 60, cache_path=cache)
        lines = cache.read_text().splitlines()

        def domb(seq, p):
            rec = compute_record(CATALOG["domb"], p)
            return TruncationRecord(seq.key, p, rec.trunc, rec.factorization, rec.galois)

        monkeypatch.setattr(pattern_miner, "compute_record", domb)
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            out = {r.p: r for r in sweep(CATALOG["apery"], 5, 60, cache_path=cache)}
        # 15 cached primes: the spot check samples exactly one
        assert caplog.text.count("is stale") == 1
        added = cache.read_text().splitlines()[len(lines):]
        assert len(added) == 1
        sampled = json.loads(added[0])["p"]
        assert f"cached record at p={sampled} is stale" in caplog.text
        assert out[sampled] == domb(CATALOG["apery"], sampled)
        assert added[0] == json.dumps(out[sampled].to_json_dict(), sort_keys=True)

    def test_resumed_sweep_starts_with_cached_lifts(self, tmp_path, monkeypatch):
        # every Apery record from 300 up is certified from P = 1 or from
        # gcd(A, L) = 1 - 34t + t^2, so neither the primes 300..399 nor the
        # spot check's sampled hit needs a decomposition, whatever the cache
        # holds
        cache = tmp_path / "cache.jsonl"
        sweep(CATALOG["apery"], 400, 499, cache_path=cache)
        calls = []
        original = FpPoly.squarefree_decomposition

        def counting(self):
            calls.append(self.p)
            return original(self)

        monkeypatch.setattr(FpPoly, "squarefree_decomposition", counting)
        out = sweep(CATALOG["apery"], 300, 499, cache_path=cache)
        assert [r.p for r in out] == primes_in_range(300, 499)
        assert calls == []

    def test_cached_primes_beyond_a_table(self, tmp_path, caplog):
        # a cache written from a 110-term Domb table and read through a
        # 40-term Apery table: both files are apery.b, so both sequences are
        # external:apery.  No prime past the short table is served, cached
        # or not, and the Domb lines within it are rejected by the reader.
        (tmp_path / "long").mkdir()
        (tmp_path / "short").mkdir()
        for name, key, count in (("long", "domb", 110), ("short", "apery", 40)):
            (tmp_path / name / "apery.b").write_text(
                "".join(f"{n} {v}\n" for n, v in enumerate(exact_terms(key)[:count])))
        cache = tmp_path / "cache.jsonl"
        sweep(load_external(tmp_path / "long" / "apery.b"), 5, 101, cache_path=cache)
        short = load_external(tmp_path / "short" / "apery.b")
        fresh = sweep(short, 5, 37)
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            assert sweep(short, 5, 101, cache_path=cache) == fresh
        for p in primes_in_range(5, 101):
            skipped = f"external:apery: table too short for p={p}; prime skipped"
            assert (skipped in caplog.text) == (p > 40)
            rejected = f"(A is not the truncation of external:apery at p={p})"
            assert (rejected in caplog.text) == (p < 40)

    def test_concurrent_sweeps_share_one_cache(self, tmp_path, caplog):
        # two processes append to one cache over overlapping ranges at once;
        # every line they leave must read back, and serve the cold records
        cache = tmp_path / "cache.jsonl"
        env = {**os.environ, "PYTHONPATH": SRC}
        runs = [subprocess.Popen([sys.executable, "-m", "aperylike.cli", "mine", "--seq",
                                  "apery", "--primes", primes, "--threads", "1",
                                  "--cache", str(cache)],
                                 env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                for primes in ("5..400", "200..600")]
        try:
            for run in runs:
                _, err = run.communicate(timeout=300)
                assert (run.returncode, err) == (0, b"")
        finally:
            for run in runs:
                run.kill()  # a no-op for a process that has exited
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            loaded = read_cache(cache, CATALOG["apery"], primes_in_range(5, 600))
            warm = sweep(CATALOG["apery"], 5, 600, cache_path=cache)
        assert caplog.text == ""
        assert sorted(loaded) == primes_in_range(5, 600)
        assert warm == sweep(CATALOG["apery"], 5, 600)

    def test_stale_hit_appended(self, tmp_path, caplog):
        cache = tmp_path / "cache.jsonl"
        fresh = {r.p: r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 60)}
        # self-consistent lines of another sequence: the Domb records filed
        # under apery
        tampered = [dict(r.to_json_dict(), seq="apery") for r in sweep(CATALOG["domb"], 5, 60)]
        cache.write_text("".join(json.dumps(data) + "\n" for data in tampered))
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            sweep(CATALOG["apery"], 5, 60, cache_path=cache)
        lines = cache.read_text().splitlines()
        added = [json.loads(line) for line in lines[len(tampered):]]
        assert added == [fresh[p] for p in sorted(fresh)]
        # the last line for a prime wins: the second sweep reads the corrected
        # records, and its spot check finds the sampled one sound
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="aperylike.pattern_miner"):
            out = {r.p: r.to_json_dict() for r in sweep(CATALOG["apery"], 5, 60, cache_path=cache)}
        assert out == fresh
        assert caplog.text == ""
        assert len(cache.read_text().splitlines()) == len(lines)


# "random-bfile" is a seeded table of random values, which satisfies no
# order-2 recurrence: every FULL-class record falls back to the decomposition
ORACLE_KEYS = [*CATALOG, "gen:2,2", "bfile", "random-bfile"]
# Cofactor guesses that are wrong at almost every prime below (1 + 5t + t^2
# is the Apery cofactor only at p = 13): ``certify`` must reject each or
# prove it exactly.
ADVERSARIAL_GUESSES = [
    (1, 5, 1),  # a wrong quadratic
    (1, 3),     # odd degree: the wrong parity
    (1, 2, 1),  # (1 + t)^2, a repeated factor
]


@pytest.fixture(scope="module")
def apery_bfile(tmp_path_factory):
    path = tmp_path_factory.mktemp("bfile") / "apery.b"
    write_apery_bfile(path)
    return load_external(path)


@pytest.fixture(scope="module")
def random_bfile(tmp_path_factory):
    rng = random.Random(0x5EED)
    path = tmp_path_factory.mktemp("bfile") / "random.b"
    path.write_text("".join(f"{n} {rng.randrange(10 ** 30)}\n" for n in range(300)))
    return load_external(path)


class TestRecords:
    @pytest.mark.parametrize("key", ORACLE_KEYS)
    def test_match_compute_record(self, key, apery_bfile, random_bfile, monkeypatch):
        # the oracle is the squarefree decomposition alone, never certify
        tables = {"bfile": apery_bfile, "random-bfile": random_bfile}
        seq = tables[key] if key in tables else get_sequence(key)
        ps = primes_in_range(5, 300)
        truncs = [truncation_poly(seq, p) for p in ps]
        want = [TruncationRecord(seq.key, p, a, a.square_cofactor(), galois_degree(a))
                for p, a in zip(ps, truncs)]
        # also with the square test off, when certify is tried with P = 1 at
        # every prime and only its exact checks reject the guess
        for filter_points in (kummer_galois.FILTER_POINTS, 0):
            monkeypatch.setattr(kummer_galois, "FILTER_POINTS", filter_points)
            assert [compute_record(seq, p) for p in ps] == want
        # a wrong guess is rejected or proved exactly
        for rec in want:
            for guess in ADVERSARIAL_GUESSES:
                got = certify(rec.trunc, FpPoly(guess, rec.p))
                assert got in (None, (rec.factorization, rec.galois)), (rec.p, guess)

    def test_one_decomposition_after_the_first_exact_lift(self, monkeypatch, capsys):
        # every Apery prime from 71 up is certified from P = 1 or from
        # gcd(A, L) = 1 - 34t + t^2, by compute_record and by the CLI
        calls = []
        original = FpPoly.squarefree_decomposition

        def counting(self):
            calls.append(self.p)
            return original(self)

        monkeypatch.setattr(FpPoly, "squarefree_decomposition", counting)
        for p in primes_in_range(71, 350):
            compute_record(CATALOG["apery"], p)
        assert calls == []
        assert cli.main(["galois", "--seq", "apery", "--primes", "71..350"]) == 0
        assert calls == []
        assert len(capsys.readouterr().out.splitlines()) == len(primes_in_range(71, 350))

    # the squarefree decompositions `compute_record` makes over the 93 primes
    # in 5..500, one per prime it cannot certify from P = 1 or gcd(A, L)
    # (a229111, a181418, a183204 and a005260 at p = 5); franel's A is
    # squarefree, so no guess is ever proved and it decomposes at every prime
    DECOMPOSITIONS = {"apery": 0, "domb": 0, "az": 0, "franel": 93, "a229111": 1,
                      "a290575": 0, "a290576": 0, "a274786": 0, "a181418": 1,
                      "a183204": 1, "a005260": 1}

    @pytest.mark.parametrize("key", sorted(DECOMPOSITIONS))
    def test_decompositions_do_not_rise(self, monkeypatch, key):
        assert set(self.DECOMPOSITIONS) == set(CATALOG)
        calls = []
        original = FpPoly.squarefree_decomposition

        def counting(self):
            calls.append(self.p)
            return original(self)

        monkeypatch.setattr(FpPoly, "squarefree_decomposition", counting)
        for p in primes_in_range(5, 500):
            compute_record(CATALOG[key], p)
        assert len(calls) <= self.DECOMPOSITIONS[key]


@pytest.fixture
def pools(monkeypatch):
    """The pools ``sweep`` starts, each a fake that runs in this process,
    records its worker count and pickles each mapped task."""
    made = []

    class RecordingExecutor:
        def __init__(self, max_workers, initializer=None, initargs=()):
            self.max_workers, self.initializer, self.initargs = max_workers, initializer, initargs
            self.tasks = []
            made.append(self)

        def __enter__(self):
            self.initializer(*self.initargs)
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            self.tasks += [pickle.dumps((fn, item)) for item in items]
            return [fn(item) for item in items]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(pattern_miner, "_worker_seq", None)
    return made


class TestDeterminism:
    def test_threads_do_not_change_output(self, tmp_path):
        # a catalog row, the generalized family and a b-file: each goes
        # through the process pool when threads > 1
        bfile = tmp_path / "b005259.txt"
        bfile.write_text("".join(f"{n} {v}\n" for n, v in enumerate(exact_terms("apery"))))
        for seq in (CATALOG["apery"], get_sequence("gen:2,1"), load_external(bfile)):
            serial = sweep(seq, 5, 100, threads=1)
            parallel = sweep(seq, 5, 100, threads=3)
            assert [r.p for r in serial] == primes_in_range(5, 100)
            assert parallel == serial
            serial_report = mine(seq, 5, 100, threads=1)
            parallel_report = mine(seq, 5, 100, threads=3)
            assert report_table(serial_report, "json") == report_table(parallel_report, "json")

    def test_pool_tasks_carry_only_primes(self, tmp_path, pools):
        # the b-file table goes to each worker once, through the pool's
        # initializer, and never into a mapped task
        bfile = tmp_path / "b005259.txt"
        bfile.write_text("".join(f"{n} {v}\n" for n, v in enumerate(exact_terms("apery"))))
        seq = load_external(bfile)
        assert sweep(seq, 5, 100, threads=2) == sweep(seq, 5, 100, threads=1)
        (pool,) = pools
        assert pool.initargs == (seq,)
        assert len(pool.tasks) == len(primes_in_range(5, 100))
        table = pickle.dumps(seq.terms)
        assert all(len(task) < len(table) // 100 for task in pool.tasks)

    def test_spot_check_runs_in_the_pool(self, tmp_path, pools):
        # a half-warm cache: the sampled hit is one more task of the pool,
        # whose workers get the sequence alone, and the output and the cache
        # are the serial sweep's
        seq = CATALOG["apery"]
        serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        sweep(seq, 5, 100, cache_path=serial)
        parallel.write_text(serial.read_text())
        out = sweep(seq, 5, 200, cache_path=parallel, threads=2)
        (pool,) = pools
        assert pool.initargs == (seq,)
        tasks = [pickle.loads(task)[1] for task in pool.tasks]
        assert tasks[0] <= 100 and tasks[1:] == primes_in_range(101, 200)
        assert out == sweep(seq, 5, 200, cache_path=serial, threads=1)
        assert out == sweep(seq, 5, 200)
        assert parallel.read_text() == serial.read_text()

    def test_pool_has_at_most_one_worker_per_prime(self, pools):
        assert [r.p for r in sweep(CATALOG["apery"], 5, 7, threads=64)] == [5, 7]
        (pool,) = pools
        assert pool.max_workers == 2

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

    def test_csv_congruence_classifier_keeps_one_field(self):
        # describe() lists residues with commas; as in `catalog --format csv`,
        # a comma inside a field is written as ';'
        clusters = (ClusterReport((1,), CongruenceClass(24, (5, 7, 11)), (5, 7, 11), ()),
                    ClusterReport((1, 1), CongruenceClass(24, (1, 13)), (13,), ()))
        report = PatternReport("x", 5, 13, "VALIDATED", clusters)
        lines = report_table(report, "csv").splitlines()
        assert [len(line.split(",")) for line in lines] == [8, 8, 8]
        assert lines[1].split(",")[5] == "pmod24in{5;7;11}"

    def test_csv_header(self, report):
        lines = report_table(report, "csv").splitlines()
        assert lines[0] == "seq,lo,hi,status,cofactor,classifier,primes,exceptions"
        assert len(lines) == 1 + len(report.clusters)

    def test_text(self, report):
        text = report_table(report, "text")
        assert "VALIDATED" in text

    def test_empty_range(self):
        report = mine(CATALOG["apery"], 80, 82)
        assert report.status == "UNRESOLVED"
        assert report.clusters == ()

    def test_poly_str(self):
        assert poly_str((1, -34, 1)) == "1 - 34*t + t^2"
        assert poly_str((1,)) == "1"
        assert poly_str((0, 1)) == "t"
