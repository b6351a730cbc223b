"""The record types keep the semantics of frozen dataclasses, and importing
the CLI loads neither ``dataclasses`` nor the modules it used to pull in."""
import os
import pickle
import subprocess
import sys

import pytest

from aperylike.fp_poly import FpPoly, SquareCofactor
from aperylike.kummer_galois import GaloisResult, compute_record
from aperylike.pattern_miner import Cluster, LiftedCofactor, lift_cofactor
from aperylike.sequences import CATALOG, CoefficientTable, SequenceSpec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def samples():
    """Two equal but distinct instances of each frozen record type."""
    rec, again = compute_record(CATALOG["apery"], 13), compute_record(CATALOG["apery"], 13)
    return [
        (rec, again),
        (rec.factorization, again.factorization),
        (rec.galois, again.galois),
        (lift_cofactor(rec.factorization.cofactor, 13),
         lift_cofactor(again.factorization.cofactor, 13)),
        (SequenceSpec("s", "d", level=6), SequenceSpec("s", "d", level=6)),
    ]


FROZEN = ["TruncationRecord", "SquareCofactor", "GaloisResult", "LiftedCofactor",
          "SequenceSpec"]


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
        assert GaloisResult(13, 12, 12) != GaloisResult(13, 6, 12)
        assert GaloisResult(13, 12, 12) != SquareCofactor(13, FpPoly.one(13), FpPoly.one(13))

    def test_construction(self):
        g = GaloisResult(13, 12, 12)
        assert GaloisResult(13, 12, kummer_exponent=12) == g
        assert GaloisResult(kummer_exponent=12, degree=12, p=13) == g
        assert (g.p, g.degree, g.kummer_exponent) == (13, 12, 12)
        with pytest.raises(TypeError):
            GaloisResult(13, 12)
        with pytest.raises(TypeError):
            GaloisResult(13, 12, 12, 1)
        with pytest.raises(TypeError):
            GaloisResult(13, 12, 12, p=13)
        with pytest.raises(TypeError):
            GaloisResult(13, 12, 12, bogus=1)

    def test_defaults(self):
        spec = SequenceSpec("s", "d")
        assert spec.exact is None and spec.recurrence is None and spec.table is None

    def test_repr(self):
        assert repr(GaloisResult(13, 12, 12)) == \
            "GaloisResult(p=13, degree=12, kummer_exponent=12)"
        assert repr(LiftedCofactor((1, -34, 1), "constant", True)) == \
            "LiftedCofactor(coeffs=(1, -34, 1), normalization='constant', reliable=True)"
        rec = compute_record(CATALOG["apery"], 13)
        assert repr(rec).startswith(f"TruncationRecord(seq='apery', p=13, trunc={rec.trunc!r}, ")

    def test_sequence_spec_ignores_table(self):
        plain = SequenceSpec("external:x", "table")
        tabled = SequenceSpec("external:x", "table", table=CoefficientTable("x", (1, 5, 73)))
        assert plain == tabled and hash(plain) == hash(tabled)
        assert tabled.is_external and not plain.is_external
        assert SequenceSpec("external:y", "table") != plain

    def test_cluster_is_mutable_and_unhashable(self):
        key = ("constant", (1, -34, 1))
        a, b = Cluster(key=key), Cluster(key)
        assert a == b and a.primes == [] and a.primes is not b.primes
        a.primes.append(13)
        assert b.primes == [] and a != b
        a.primes = [17]
        assert a == Cluster(key, [17])
        assert Cluster.__hash__ is None
        with pytest.raises(TypeError):
            hash(Cluster(key))
        assert repr(a) == "Cluster(key=('constant', (1, -34, 1)), primes=[17])"


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
