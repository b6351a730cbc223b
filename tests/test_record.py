"""The record types keep the semantics of frozen dataclasses, and importing
the CLI loads neither ``dataclasses`` nor the modules it used to pull in."""
import os
import pickle
import subprocess
import sys

import pytest

from aperylike.fp_poly import FpPoly, SquareCofactor
from aperylike.kummer_galois import GaloisResult, compute_record
from aperylike.pattern_miner import ClusterReport, LiftedCofactor, lift_cofactor
from aperylike.sequences import CATALOG, Recurrence, SequenceSpec, apery_exact

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def spec():
    return SequenceSpec("s", "d", apery_exact, Recurrence(3, 5, (5, 27, 51, 34), (0, 0, 0, -1)),
                        level=6)


def samples():
    """Two equal but distinct instances of each frozen record type."""
    rec, again = compute_record(CATALOG["apery"], 13), compute_record(CATALOG["apery"], 13)
    cofactor = (1, -34, 1)
    return [
        (rec, again),
        (rec.factorization, again.factorization),
        (rec.galois, again.galois),
        (lift_cofactor(rec.factorization.cofactor, 13),
         lift_cofactor(again.factorization.cofactor, 13)),
        (spec(), spec()),
        (ClusterReport(cofactor, None, (13, 17), ()),
         ClusterReport(cofactor, None, (13, 17), ())),
    ]


FROZEN = ["TruncationRecord", "SquareCofactor", "GaloisResult", "LiftedCofactor",
          "SequenceSpec", "ClusterReport"]


@pytest.mark.parametrize("index", range(len(FROZEN)), ids=FROZEN)
class TestFrozenRecord:
    def test_equal_fields_equal_objects_and_hashes(self, index):
        a, b = samples()[index]
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_never_equals_its_tuple(self, index):
        a, _ = samples()[index]
        fields = tuple(vars(a).values())
        assert a != fields and fields != a

    def test_assignment_and_deletion_raise(self, index):
        a, _ = samples()[index]
        name = next(iter(vars(a)))
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.not_a_field = 1

    def test_pickle_round_trip(self, index):
        a, _ = samples()[index]
        # from protocol 2 on: FpPoly has __slots__, which 0 and 1 cannot pickle
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(a, protocol))
            assert type(back) is type(a) and back == a and hash(back) == hash(a)


class TestRecordSemantics:
    def test_unequal_fields(self):
        assert GaloisResult(13, 12) != GaloisResult(13, 6)
        assert GaloisResult(13, 12) != SquareCofactor(13, FpPoly.one(13), FpPoly.one(13))

    def test_construction(self):
        one = FpPoly.one(13)
        f = SquareCofactor(2, one, one)
        assert SquareCofactor(2, one, root=one) == f
        assert SquareCofactor(root=one, cofactor=one, c=2) == f
        assert (f.c, f.cofactor, f.root) == (2, one, one)
        with pytest.raises(TypeError):
            SquareCofactor(2, one)
        with pytest.raises(TypeError):
            SquareCofactor(2, one, one, 1)
        with pytest.raises(TypeError):
            SquareCofactor(2, one, one, c=2)
        with pytest.raises(TypeError):
            SquareCofactor(2, one, one, bogus=1)

    def test_defaults(self):
        terms = CATALOG["apery"].terms
        spec = SequenceSpec("s", "d", apery_exact, terms)
        assert spec.level is None and spec.oeis is None
        assert spec == SequenceSpec("s", "d", apery_exact, terms, None, None)
        with pytest.raises(TypeError):
            SequenceSpec("s", "d", apery_exact)

    def test_repr(self):
        one = FpPoly.one(13)
        assert repr(SquareCofactor(2, one, one)) == \
            f"SquareCofactor(c=2, cofactor={one!r}, root={one!r})"
        assert repr(LiftedCofactor((1, -34, 1), True)) == \
            "LiftedCofactor(coeffs=(1, -34, 1), reliable=True)"
        rec = compute_record(CATALOG["apery"], 13)
        assert repr(rec).startswith(f"TruncationRecord(seq='apery', p=13, trunc={rec.trunc!r}, ")


# The aperylike modules `import aperylike.cli` loaded before the record types
# stopped using dataclasses; none may be deferred to make the import cheaper.
CLI_MODULES = {
    "aperylike", "aperylike.cli", "aperylike.errors", "aperylike.families",
    "aperylike.finite_field", "aperylike.fp_poly", "aperylike.fp_series",
    "aperylike.kernels", "aperylike.kummer_galois", "aperylike.modular_relations",
    "aperylike.pattern_miner", "aperylike.sequences",
}


def test_cli_import_loads_no_dataclasses_logging_or_json():
    # -S leaves out site and whatever its .pth files import
    probe = "import sys, aperylike.cli; print('\\n'.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    loaded = set(out.split())
    assert not loaded & {"dataclasses", "inspect", "logging", "json"}
    assert CLI_MODULES <= loaded
    # a run that warns about nothing does not load logging either
    probe = ("import sys, aperylike.cli\n"
             "status = aperylike.cli.main(['galois', '--seq', 'apery', '--primes', '5..60'])\n"
             "sys.stderr.write(f'{status} {\"logging\" in sys.modules}')")
    run = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert run.stdout.startswith("p=5 ")
    assert run.stderr == "0 False"


def test_cli_warning_keeps_its_stderr_line(tmp_path):
    # logging is set up at the first warning, in the format cli.main used to set
    bfile = tmp_path / "short.b"
    bfile.write_text("0 1\n1 5\n2 73\n3 1445\n4 33001\n5 819005\n")
    argv = ["mine", "--seq", f"@{bfile}", "--primes", "5..11", "--threads", "1"]
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("APERY_CACHE", None)
    run = subprocess.run([sys.executable, "-S", "-m", "aperylike.cli", *argv], env=env,
                         check=True, capture_output=True, text=True, timeout=60)
    assert run.stderr == "".join(
        f"WARNING aperylike.pattern_miner: external:short: table too short for p={p}; "
        "prime skipped\n" for p in (7, 11))
