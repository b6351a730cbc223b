"""Golden outputs: the stdout of a fixed list of CLI commands, and for
``mine`` its cache file, compared byte for byte with ``tests/golden/``.

Each command runs in process through ``cli.main`` with one thread.  A golden
file pins the answers from change to change, so it changes only together
with a CHANGES.md entry that says which output changed and why; never
regenerate one to make this test pass.  To write the files of a commit whose
output is to be pinned, run from the repository root:

    PYTHONPATH=src python -m tests.test_golden [NAME ...]

With no NAME it writes every case of ``CASES``; a case of ``STRETCH_CASES``
is written only when it is named.  The stretch cases run only with
``APERYLIKE_STRETCH=1``.
"""
import io
import os
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from aperylike.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> command; ``mine`` commands also get ``--threads 1 --cache PATH``.
# The first three are the perfbench workloads (at their widest windows).
CASES = {
    "galois-apery": "galois --seq apery --primes 5..350 --check-theorem",
    "mine-bfile": "mine --seq @{bfile} --primes 1949..1999",
    "verify-2f1": "verify hypergeometric --primes 5..200",
    "galois-domb": "galois --seq domb --primes 5..499 --check-theorem",
    "mine-apery-json": "mine --seq apery --primes 5..499 --format json",
    "mine-a181418": "mine --seq a181418 --primes 5..499",
    "verify-hypergeometric": "verify hypergeometric --primes 5..700",
    "verify-twist-az": "verify twist --seq az --primes 5..499",
    "verify-twist-apery": "verify twist --seq apery --primes 5..300",
    "verify-twist-domb": "verify twist --seq domb --primes 5..300",
    "verify-substitution-domb": "verify substitution --seq domb --primes 5..300",
    "verify-kummer-apery": "verify kummer --seq apery --primes 5..200",
    "verify-quadratic-apery": "verify quadratic --seq apery --primes 5..499",
    "verify-quadratic-domb": "verify quadratic --seq domb --primes 5..499",
    "verify-quadratic-az": "verify quadratic --seq az --primes 5..499",
    # the sequences whose recurrence is found from their values
    "galois-gen-2-2": "galois --seq gen:2,2 --primes 5..200",
    "galois-gen-3-2": "galois --seq gen:3,2 --primes 5..200",
    "mine-bfile-small-primes": "mine --seq @{bfile} --primes 5..300",
}

# Longer runs, compared only when APERYLIKE_STRETCH=1.
STRETCH_CASES = {
    "galois-apery-2503": "galois --seq apery --primes 5..2503 --check-theorem",
    "verify-lucas-apery-199": "verify lucas --seq apery --prime 199",
}

BFILE_TERMS = 2100


def write_apery_bfile(path: Path, terms: int = BFILE_TERMS) -> list[int]:
    """Apery numbers a(0..terms-1) as an OEIS b-file, from the exact
    recurrence (n+1)^3 a(n+1) = (34n^3 + 51n^2 + 27n + 5) a(n) - n^3 a(n-1).
    Returns the values.  Past n = 2810 they have more than 4300 digits, the
    default limit on int-to-str conversion of CPython 3.10.7 and later, so
    the limit is lifted while the file is written."""
    values = [1, 5]
    for n in range(1, terms - 1):
        num = (34 * n ** 3 + 51 * n ** 2 + 27 * n + 5) * values[n] - n ** 3 * values[n - 1]
        q, r = divmod(num, (n + 1) ** 3)
        assert r == 0, f"Apery recurrence not integral at n={n + 1}"
        values.append(q)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = "".join(f"{n} {v}\n" for n, v in enumerate(values))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    path.write_text(text, encoding="utf-8")
    return values


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """The files a case produces, by golden file name: ``NAME.out`` (stdout)
    and, for ``mine``, ``NAME.cache.jsonl``."""
    bfile = workdir / "apery.b"  # the sequence key is external:apery
    command = {**CASES, **STRETCH_CASES}[name]
    argv = shlex.split(command.format(bfile=bfile))
    cache = workdir / f"{name}.cache.jsonl"
    if argv[0] == "mine":
        argv += ["--threads", "1", "--cache", str(cache)]
        if "{bfile}" in command:
            write_apery_bfile(bfile)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{name}: exit code {code}"
    files = {f"{name}.out": out.getvalue().encode("utf-8")}
    if argv[0] == "mine":
        files[cache.name] = cache.read_bytes()
    return files


def check_case(name: str, workdir: Path) -> None:
    for filename, got in run_case(name, workdir).items():
        want = (GOLDEN / filename).read_bytes()
        if got != want:
            lines = zip(got.splitlines(), want.splitlines())
            first = next((i for i, (a, b) in enumerate(lines, 1) if a != b), None)
            pytest.fail(f"{filename} differs from the golden file "
                        f"(first differing line: {first}, "
                        f"{len(got)} bytes against {len(want)})")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    check_case(name, tmp_path)


@pytest.mark.skipif(not os.environ.get("APERYLIKE_STRETCH"),
                    reason="stretch golden runs enabled via APERYLIKE_STRETCH=1")
@pytest.mark.parametrize("name", sorted(STRETCH_CASES))
def test_golden_stretch(name, tmp_path):
    check_case(name, tmp_path)


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or sorted(CASES)
    unknown = [n for n in names if n not in CASES and n not in STRETCH_CASES]
    if unknown:
        sys.exit(f"unknown golden case(s): {' '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for case in names:
        with tempfile.TemporaryDirectory() as tmp:
            for filename, data in run_case(case, Path(tmp)).items():
                (GOLDEN / filename).write_bytes(data)
                print(f"wrote {filename}: {len(data)} bytes", file=sys.stderr)
