import json
import shlex
from pathlib import Path

import pytest

from aperylike import cli, kernels, modular_relations
from aperylike.cli import main
from aperylike.fp_series import FpSeries
from tests.conftest import exact_terms

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_excluded_prime_is_3(self, capsys):
        code, _, err = run(capsys, "truncate", "--seq", "apery", "--prime", "3")
        assert code == 3
        assert "excluded" in err

    def test_composite_is_3(self, capsys):
        code, _, _ = run(capsys, "galois", "--seq", "apery", "--prime", "91")
        assert code == 3

    def test_unknown_sequence_is_2(self, capsys):
        code, _, _ = run(capsys, "truncate", "--seq", "nope", "--prime", "7")
        assert code == 2

    def test_missing_prime_is_2(self, capsys):
        code, _, _ = run(capsys, "truncate", "--seq", "apery")
        assert code == 2

    def test_argparse_usage_is_2(self):
        with pytest.raises(SystemExit) as info:
            main(["bogus-command"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("truncate", "--seq", "@{missing}", "--prime", "5"),
        ("verify", "lucas", "--seq", "@{dir}", "--prime", "5"),
        ("mine", "--seq", "apery", "--primes", "5..20", "--threads", "1",
         "--cache", "{dir}"),
    ])
    def test_unreadable_path_is_2(self, capsys, tmp_path, argv):
        paths = {"missing": tmp_path / "missing.b", "dir": tmp_path}
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_prime_and_primes_conflict(self, capsys):
        code, _, _ = run(capsys, "galois", "--seq", "apery",
                         "--prime", "7", "--primes", "5..20")
        assert code == 2


class TestCatalog:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "apery" in out and "a005260" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert any(row["seq"] == "franel" for row in data)


class TestTruncate:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "truncate", "--seq", "apery",
                           "--prime", "5", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"seq": "apery", "p": 5, "A": [1, 0, 3, 0, 1]}

    def test_text(self, capsys):
        code, out, _ = run(capsys, "truncate", "--seq", "apery", "--prime", "5")
        assert code == 0
        assert "t^4 + 3*t^2 + 1" in out


class TestCofactor:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "cofactor", "--seq", "domb",
                           "--prime", "101", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert set(data) >= {"seq", "p", "c", "P", "B", "lift"}
        assert data["p"] == 101

    def test_apery_p13_lift(self, capsys):
        _, out, _ = run(capsys, "cofactor", "--seq", "apery",
                        "--prime", "13", "--format", "json")
        assert json.loads(out)["P"] == [1, 5, 1]


class TestGalois:
    def test_check_theorem_range(self, capsys):
        code, out, _ = run(capsys, "galois", "--seq", "apery",
                           "--primes", "5..99", "--check-theorem")
        assert code == 0
        assert out.count("ok") == 23

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "galois", "--seq", "az",
                           "--primes", "5..30", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "p,degree,label"

    def test_range_without_primes_is_2(self, capsys):
        # a range with no prime >= 5 checks or mines nothing, so it must not
        # pass; mine's empty range reads hi < lo
        for argv in (("galois", "--seq", "apery", "--primes", "1..4", "--check-theorem"),
                     ("mine", "--seq", "apery", "--primes", "5..4")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == f"error: --primes {argv[4]} holds no prime >= 5\n"

    def test_check_theorem_requires_family(self, capsys):
        code, _, _ = run(capsys, "galois", "--seq", "franel",
                         "--prime", "7", "--check-theorem")
        assert code == 2


class TestVerify:
    def test_ode(self, capsys):
        code, out, _ = run(capsys, "verify", "ode", "--primes", "5..47")
        assert code == 0
        assert "FAIL" not in out

    def test_lucas(self, capsys):
        code, out, _ = run(capsys, "verify", "lucas", "--seq", "domb", "--prime", "7")
        assert code == 0 and "PASS" in out

    def test_twist_prints_sign(self, capsys):
        code, out, _ = run(capsys, "verify", "twist", "--seq", "apery", "--prime", "5")
        assert code == 0 and "sign=-1" in out

    def test_substitution_caps_small_prime(self, capsys):
        code, out, _ = run(capsys, "verify", "substitution", "--seq", "az",
                           "--prime", "101")
        assert code == 0 and "sign=+" in out

    def test_substitution_checks_past_p(self, capsys, monkeypatch):
        # f(t(x)) = rho(x) h(x)^2 holds over Z[[x]], so the check runs to
        # --order at every p; a wrong coefficient at index p must show
        def corrupted(seq, n, p, _coeffs=modular_relations.coefficients_mod_p):
            cs = _coeffs(seq, n, p)
            if n > p:
                cs[p] = (cs[p] + 1) % p
            return cs

        monkeypatch.setattr(modular_relations, "coefficients_mod_p", corrupted)
        code, out, _ = run(capsys, "verify", "substitution", "--seq", "domb",
                           "--prime", "5", "--order", "30")
        assert code == 1 and "FAIL" in out

    def test_endpoint(self, capsys):
        code, out, _ = run(capsys, "verify", "endpoint", "--primes", "5..13")
        assert code == 0
        assert "H(-1)=-1" in out and "H(-1)=1" in out

    def test_generalized_sequence(self, capsys):
        code, out, _ = run(capsys, "truncate", "--seq", "gen:1,1",
                           "--prime", "7", "--format", "json")
        assert code == 0
        # central Delannoy numbers 1, 3, 13, 63, 321, 1683, 8989 mod 7
        assert json.loads(out)["A"] == [1, 3, 6, 0, 6, 3, 1]

    def test_kummer_failure_exits_1(self, capsys, tmp_path):
        path = tmp_path / "counting.txt"
        path.write_text("\n".join(f"{n} {n + 1}" for n in range(40)) + "\n")
        code, out, _ = run(capsys, "verify", "kummer", "--seq", f"@{path}",
                           "--prime", "5", "--order", "30")
        assert code == 1 and "FAIL" in out

    @pytest.mark.parametrize("table, check, line", [
        ("counting", "kummer", "kummer p=5: FAIL first mismatch at index 5"),
        ("counting", "lucas", "lucas p=5: FAIL counterexample (n,l)=(1, 0)"),
        # a_0 = 2 breaks the Kummer relation at index 0, which the Lucas
        # check, starting at index p, never reads: it fails at 2p = 10
        ("apery_a0", "kummer", "kummer p=5: FAIL first mismatch at index 0"),
        ("apery_a0", "lucas", "lucas p=5: FAIL counterexample (n,l)=(2, 0)"),
    ])
    def test_frobenius_failure_lines(self, capsys, tmp_path, table, check, line):
        values = {"counting": [n + 1 for n in range(40)],
                  "apery_a0": [2, *exact_terms("apery")[1:40]]}[table]
        path = tmp_path / f"{table}.b"
        path.write_text("".join(f"{n} {v}\n" for n, v in enumerate(values)))
        code, out, _ = run(capsys, "verify", check, "--seq", f"@{path}", "--prime", "5")
        assert (code, out) == (1, line + "\n")

    def test_lucas_needs_a_table_longer_than_p(self, capsys, tmp_path, rng):
        # a table of at most p terms holds no index n p + l to check, so it
        # is a usage error, not a PASS
        path = tmp_path / "random.b"
        path.write_text("".join(f"{n} {rng.randrange(10 ** 6)}\n" for n in range(40)))
        code, out, err = run(capsys, "verify", "lucas", "--seq", f"@{path}", "--prime", "41")
        assert (code, out) == (2, "")
        assert "40 terms" in err and "p=41" in err
        code, out, _ = run(capsys, "verify", "lucas", "--seq", f"@{path}", "--prime", "37")
        assert (code, out) == (1, "lucas p=37: FAIL counterexample (n,l)=(1, 0)\n")
        prefix = tmp_path / "apery41.b"
        prefix.write_text("".join(f"{n} {v}\n" for n, v in enumerate(exact_terms("apery")[:41])))
        code, out, _ = run(capsys, "verify", "lucas", "--seq", f"@{prefix}", "--prime", "101")
        assert (code, out) == (2, "")

    def test_reversed_range_is_2(self, capsys):
        code, out, err = run(capsys, "verify", "ode", "--primes", "9..4")
        assert code == 2 and out == ""
        assert "9..4" in err

    def test_needs_seq(self, capsys):
        code, _, _ = run(capsys, "verify", "lucas", "--prime", "7")
        assert code == 2

    def test_family_check_rejects_nonfamily(self, capsys):
        code, _, _ = run(capsys, "verify", "twist", "--seq", "franel", "--prime", "7")
        assert code == 2

    @pytest.mark.parametrize("order", [None, "3", "40"])
    def test_hypergeometric_builds_each_series_once(self, capsys, monkeypatch, order):
        # both checks of the Gauss link read one build of each series per
        # prime, at precision max(p, order)
        builds = []
        for name in ("_link_series", "hypergeometric_2f1", "franel_series"):
            def counted(p, precision, *rest, _fn=getattr(modular_relations, name), _name=name):
                builds.append(_name)
                return _fn(p, precision, *rest)
            monkeypatch.setattr(modular_relations, name, counted)
        argv = ["verify", "hypergeometric", "--primes", "5..13"]
        code, out, _ = run(capsys, *argv, *(["--order", order] if order else []))
        assert code == 0 and out.count("PASS") == 4
        assert sorted(builds) == sorted(["_link_series", "hypergeometric_2f1",
                                         "franel_series"] * 4)

    def test_hypergeometric_power_identity_reads_past_p(self, capsys, monkeypatch):
        # at p = 101 the default order 100 gives N = p, where h = H * h(x^p)
        # holds trivially; an error planted at index p + 10 must still fail
        def planted(p, precision, _fn=modular_relations.franel_series):
            cs = list(_fn(p, precision).coeffs)
            if len(cs) > p + 10:
                cs[p + 10] += 1
            return FpSeries(cs, p)
        monkeypatch.setattr(modular_relations, "franel_series", planted)
        code, out, _ = run(capsys, "verify", "hypergeometric", "--prime", "101")
        assert code == 1
        assert out == "hypergeometric p=101: FAIL link=True power=False\n"

    def test_hypergeometric_one_composition_no_inverse(self, capsys, monkeypatch):
        # per prime: one composition, for s of the link, and no series inverse
        calls = []
        for name in ("series_compose", "series_inv"):
            def counted(*args, _fn=getattr(kernels, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(kernels, name, counted)
        code, out, _ = run(capsys, "verify", "hypergeometric", "--primes", "5..13")
        assert code == 0 and out.count("PASS") == 4
        assert calls.count("series_compose") == 4
        assert calls.count("series_inv") == 0

    def test_format_is_rejected(self):
        # verify prints text lines only, so it takes no --format
        with pytest.raises(SystemExit) as info:
            main(["verify", "hypergeometric", "--primes", "5..13", "--format", "json"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["kummer", "--seq", "apery", "--prime", "7", "--order", "0"],
        ["hypergeometric", "--prime", "7", "--order", "-3"],
        ["substitution", "--seq", "apery", "--prime", "7", "--order", "0"],
    ], ids=["kummer-0", "hypergeometric-negative", "substitution-0"])
    def test_order_below_one_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(["verify", *argv])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert "--order: must be at least 1" in captured.err

    def test_kummer_order_up_to_p_is_2(self, capsys):
        # below index p+1 the relation reads A_p = A_p * a_0, which holds for
        # any series with a_0 = 1, so no line may print PASS
        code, out, err = run(capsys, "verify", "kummer", "--seq", "apery",
                             "--primes", "5..13", "--order", "5")
        assert code == 2 and out == ""
        assert "--order > p" in err
        code, out, _ = run(capsys, "verify", "kummer", "--seq", "apery",
                           "--primes", "5..13", "--order", "13")
        assert code == 2 and out == ""
        code, out, _ = run(capsys, "verify", "kummer", "--seq", "apery",
                           "--primes", "5..13", "--order", "14")
        assert code == 0 and out.count("PASS") == 4


class TestMine:
    def test_json_report(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        code, out, _ = run(capsys, "mine", "--seq", "apery", "--primes", "5..120",
                           "--cache", str(cache), "--threads", "1",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "VALIDATED"
        assert cache.exists()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        args = ("mine", "--seq", "az", "--primes", "5..100",
                "--cache", str(cache), "--threads", "1")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_rejected(self, capsys, threads):
        with pytest.raises(SystemExit) as info:
            main(["mine", "--seq", "apery", "--primes", "5..20", "--threads", threads])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert "--threads: must be at least 1" in captured.err

    def test_strict_flags_unresolved(self, capsys, tmp_path):
        # a non-Lucas external table produces incoherent cofactors: most
        # lifts never match a candidate, which forces UNRESOLVED
        path = tmp_path / "junk.txt"
        rows = []
        value = 1
        for n in range(32):
            rows.append(f"{n} {value}")
            value = value * 7 + n * n + 1
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "mine", "--seq", f"@{path}",
                           "--primes", "5..31", "--strict")
        assert "UNRESOLVED" in out
        assert code == 1
        code, _, _ = run(capsys, "mine", "--seq", f"@{path}", "--primes", "5..31")
        assert code == 0  # without --strict the report alone is not a failure

    def test_strict_fails_when_no_prime_is_mined(self, capsys, tmp_path):
        # a 51-term table is too short for every prime in 100..200, so every
        # prime is skipped and nothing is validated
        path = tmp_path / "short.b"
        path.write_text("".join(f"{n} {v}\n" for n, v in enumerate(exact_terms("apery")[:51])))
        code, out, _ = run(capsys, "mine", "--seq", f"@{path}", "--primes", "100..200",
                           "--threads", "1", "--format", "json", "--strict")
        data = json.loads(out)
        assert data["clusters"] == [] and data["status"] == "UNRESOLVED"
        assert code == 1

    def test_timestamp_flag(self, capsys):
        code, out, _ = run(capsys, "--timestamp", "catalog")
        assert code == 0
        assert out.startswith("# generated ")


def _readme_commands() -> list[str]:
    """Every ``aperylike ...`` line inside a fenced code block of the README."""
    commands, fenced = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced:
            line = line.removeprefix("$ ").strip()
            if line.startswith("aperylike "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = cli._build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
