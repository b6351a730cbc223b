"""Prime sweeps, integer lifts of square cofactors, clustering, and
inference of congruence / quadratic-residue classifiers.

The cross-prime identification works without CRT: a lift at prime p is
*reliable* once p exceeds twice the largest coefficient magnitude, so
reliable lifts seed integer candidates and tentative small-prime lifts are
matched by reducing the candidates back mod p.

Classifier inference searches a fixed little language, in order: Legendre
symbols of the negated divisors of the sequence level (when known), then a
generic discriminant list (singles, then pairs), then congruence classes.
Primes dividing a candidate discriminant have Legendre symbol 0 and are set
aside as ramified rather than breaking exactness.
"""
from __future__ import annotations

import math
import os
import random
import sys

from ._record import record
from .families import in_classes
from .finite_field import check_prime, factorize, is_prime, legendre
from .fp_poly import FpPoly
from .kummer_galois import TruncationRecord, compute_record
from .sequences import SequenceSpec

DEFAULT_DISCRIMINANTS = (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -11)
DEFAULT_MODULI = (3, 4, 6, 8, 12, 24)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with max(lo, 5) <= p <= hi; endpoints need not be prime."""
    return [n for n in range(max(lo, 5), hi + 1) if is_prime(n)]


def _warn(msg: str, *args) -> None:
    """Log a warning on this module's logger.  ``logging`` is imported here,
    not with the module, so that a run without warnings never loads it.  If
    the process has not configured logging, the first warning sets up the
    ``WARNING aperylike.pattern_miner: ...`` lines on stderr."""
    import logging

    if not logging.root.handlers:
        logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger(__name__).warning(msg, *args, stacklevel=2)


# -- lifting --------------------------------------------------------------------


def _normalization(coeffs: tuple[int, ...]) -> str:
    return "constant" if coeffs[0] else "monic"


@record
class LiftedCofactor:
    """Integer lift of a monic cofactor, rescaled to constant term 1 when
    possible (matching the usual presentation) and monic otherwise.

    ``reliable`` means p > 2 * max|coefficient| + 1 for the lifted
    representative.  The flag is a heuristic: a true coefficient of
    magnitude above p/2 wraps around and can still pass it, which is why
    clustering only uses the flag to seed candidates at the largest primes
    and matches everything else by reduction.
    """

    coeffs: tuple[int, ...]  # constant first
    reliable: bool

    @property
    def normalization(self) -> str:
        return _normalization(self.coeffs)


def _symmetric(c: int, p: int) -> int:
    return c - p if c > p // 2 else c


def lift_cofactor(cofactor: FpPoly, p: int) -> LiftedCofactor:
    if not cofactor:
        raise ZeroDivisionError("cannot lift the zero polynomial")
    c0 = cofactor[0]
    scaled = cofactor.scale(pow(c0, p - 2, p)) if c0 else cofactor.monic()
    lifted = tuple(_symmetric(c, p) for c in scaled.coeffs)
    height = max((abs(c) for c in lifted), default=0)
    return LiftedCofactor(coeffs=lifted, reliable=p > 2 * height + 1)


# -- classifiers --------------------------------------------------------------------


@record
class LegendreProfile:
    """Conjunction of Legendre-symbol conditions (d_i/p) = eps_i."""

    symbols: tuple[tuple[int, int], ...]

    def matches(self, p: int) -> bool | None:
        """None marks ramified primes (some symbol vanishes)."""
        for d, eps in self.symbols:
            s = legendre(d, p)
            if s == 0:
                return None
            if s != eps:
                return False
        return True

    def describe(self) -> str:
        return " and ".join(f"({d}/p)={'+1' if e == 1 else '-1'}" for d, e in self.symbols)

    def to_json(self) -> dict:
        return {"kind": "legendre", "symbols": [list(s) for s in self.symbols]}


@record
class CongruenceClass:
    modulus: int
    residues: tuple[int, ...]

    def matches(self, p: int) -> bool | None:
        return in_classes((self.modulus, self.residues), p)

    def describe(self) -> str:
        rs = ",".join(str(r) for r in self.residues)
        return f"p mod {self.modulus} in {{{rs}}}"

    def to_json(self) -> dict:
        return {"kind": "congruence", "modulus": self.modulus, "residues": list(self.residues)}


@record
class AlwaysTrue:
    def matches(self, p: int) -> bool | None:
        return True

    def describe(self) -> str:
        return "all p"

    def to_json(self) -> dict:
        return {"kind": "always"}


# -- clustering --------------------------------------------------------------------


@record
class ClusterReport:
    """The primes whose cofactors lift to one integer polynomial, with the
    classifier inferred for them and the primes it contradicts."""

    cofactor: tuple[int, ...]  # constant first
    classifier: object | None
    primes: tuple[int, ...]    # ascending
    exceptions: tuple[int, ...]

    @property
    def normalization(self) -> str:
        return _normalization(self.cofactor)


def cluster_records(records: list[TruncationRecord]) -> tuple[list[ClusterReport], list[int]]:
    """Group records by the integer lift of their cofactor, as reports with
    no classifier yet, in order of the lift's length and coefficients.

    Records are processed by descending prime: a lift whose height clears
    the reliability bound seeds an integer candidate, and every later
    (smaller) prime is matched by reducing the known candidates mod p.
    Two lifts that agree mod p have the same constant term, 0 or 1, so the
    coefficients alone key a candidate.  A small prime can pass the height
    heuristic with a wrong lift, so candidate matching always takes
    precedence over seeding.  One pass suffices: a candidate seeded after
    p, at q < p, has height h < (q-1)/2, so had p matched it, p's lift would
    be that candidate, reliable at p, and p would have seeded it.  Primes
    whose lift matches no candidate at their turn are returned ascending.
    """
    clusters: dict[tuple[int, ...], list[int]] = {}
    unmatched: list[tuple[TruncationRecord, LiftedCofactor]] = []
    for rec in sorted(records, key=lambda r: -r.p):
        lift = lift_cofactor(rec.factorization.cofactor, rec.p)
        target = FpPoly(lift.coeffs, rec.p)
        hits = sorted((key for key in clusters if FpPoly(key, rec.p) == target),
                      key=lambda k: (len(k), k))
        if len(hits) > 1:
            _warn("%s p=%d: cofactor matches %d candidates; taking %s",
                  rec.seq, rec.p, len(hits), list(hits[0]))
        if hits:
            clusters[hits[0]].append(rec.p)
        elif lift.reliable:
            clusters.setdefault(lift.coeffs, []).append(rec.p)
        else:
            unmatched.append((rec, lift))
    unmatched.reverse()  # ascending p
    for rec, lift in unmatched:
        _warn("%s p=%d: tentative cofactor lift %s matches no candidate",
              rec.seq, rec.p, list(lift.coeffs))

    return [ClusterReport(key, None, tuple(sorted(clusters[key])), ())
            for key in sorted(clusters, key=lambda k: (len(k), k))], [r.p for r, _ in unmatched]


# -- classifier inference --------------------------------------------------------------


@record
class PatternReport:
    seq: str
    lo: int
    hi: int
    status: str  # VALIDATED | UNRESOLVED
    clusters: tuple[ClusterReport, ...]
    ramified: tuple[int, ...] = ()
    unmatched: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "seq": self.seq,
            "range": [self.lo, self.hi],
            "clusters": [
                {
                    "cofactor": list(c.cofactor),
                    "normalization": c.normalization,
                    "classifier": c.classifier.to_json() if c.classifier else None,
                    "primes": list(c.primes),
                    "exceptions": list(c.exceptions),
                }
                for c in self.clusters
            ],
            "ramified": list(self.ramified),
            "unmatched": list(self.unmatched),
            "status": self.status,
        }


def _square_free_divisors(level: int) -> list[int]:
    sf = math.prod(factorize(level))
    return [d for d in range(2, sf + 1) if sf % d == 0]


def _candidate_singles(level: int | None) -> list[int]:
    out: list[int] = []
    if level:
        out.extend(-d for d in _square_free_divisors(level))
    for d in sorted(DEFAULT_DISCRIMINANTS, key=lambda d: (abs(d), d > 0)):
        if d not in out:
            out.append(d)
    return out


def _assign(clusters: list[ClusterReport],
            classifiers: list) -> tuple[list, list[int]] | None:
    """Give each cluster the first unused classifier that none of its primes
    contradicts; None when some cluster has none.

    Returns the classifiers in cluster order and the ramified primes, those
    whose own classifier has a vanishing symbol.  Every list ``_trials``
    yields is exclusive (sign patterns of the same symbols, or disjoint
    residue sets), so no other classifier of it matches an unramified
    prime: each such prime lands in its own cluster's class alone.
    """
    assignment: list = []
    ramified: list[int] = []
    used = set()
    for cl in clusters:
        for idx, cand in enumerate(classifiers):
            if idx in used:
                continue
            verdicts = [cand.matches(p) for p in cl.primes]
            if all(v is not False for v in verdicts):
                break
        else:
            return None
        used.add(idx)
        assignment.append(cand)
        ramified += [p for p, v in zip(cl.primes, verdicts) if v is None]
    return assignment, sorted(ramified)


def _trials(clusters: list[ClusterReport], level: int | None):
    """The classifier lists ``infer_conditions`` tries, one per cluster each,
    made one at a time in search order: all p for a single cluster, single
    Legendre symbols (up to two clusters), pairs of symbols (up to four),
    then the congruence classes modulo each of DEFAULT_MODULI whose residue
    sets are disjoint."""
    if len(clusters) == 1:
        yield [AlwaysTrue()]
    singles = _candidate_singles(level)
    if len(clusters) <= 2:
        for d in singles:
            yield [LegendreProfile(((d, 1),)), LegendreProfile(((d, -1),))]
    if len(clusters) <= 4:
        for i, d1 in enumerate(singles):
            for d2 in singles[i + 1:]:
                yield [LegendreProfile(((d1, e1), (d2, e2)))
                       for e1 in (1, -1) for e2 in (1, -1)]
    for m in DEFAULT_MODULI:
        classes = [{p % m for p in cl.primes} for cl in clusters]
        if sum(map(len, classes)) == len(set().union(*classes)):
            yield [CongruenceClass(m, tuple(sorted(rs))) for rs in classes]


def infer_conditions(
    seq_key: str,
    clusters: list[ClusterReport],
    unmatched: list[int],
    lo: int,
    hi: int,
    level: int | None = None,
) -> PatternReport:
    """Search the classifier language for an exact partition of the sweep.

    ``clusters`` are ``cluster_records``'s reports; the result holds a copy
    of each with its classifier and, when no trial partitions the sweep
    exactly, with the primes that the first-tried classifier contradicts.
    Primes whose cofactor lift never matched a candidate mean the
    clustering itself is incomplete, so their presence forces UNRESOLVED.
    So does an empty sweep: with no cluster there is nothing that was
    validated.
    """
    good = "UNRESOLVED" if unmatched else "VALIDATED"
    if not clusters:
        return PatternReport(seq_key, lo, hi, "UNRESOLVED", (), unmatched=tuple(unmatched))
    first = None
    for classifiers in _trials(clusters, level):
        found = _assign(clusters, classifiers)
        if found:
            assignment, ramified = found
            entries = tuple(ClusterReport(cl.cofactor, cand, cl.primes, ())
                            for cl, cand in zip(clusters, assignment))
            return PatternReport(seq_key, lo, hi, good, entries,
                                 ramified=tuple(ramified), unmatched=tuple(unmatched))
        if first is None:
            first = classifiers
    # unresolved: report the first-tried classifier family with its exceptions
    entries = []
    for idx, cl in enumerate(clusters):
        cand = first[idx] if first and idx < len(first) else None
        exceptions = tuple(p for p in cl.primes if cand and cand.matches(p) is False)
        entries.append(ClusterReport(cl.cofactor, cand, cl.primes, exceptions))
    return PatternReport(seq_key, lo, hi, "UNRESOLVED", tuple(entries),
                         unmatched=tuple(unmatched))


# -- sweeping + cache --------------------------------------------------------------


def read_cache(path, seq: SequenceSpec, primes) -> dict[int, TruncationRecord]:
    """The cached records of ``seq`` at ``primes``: the last line for each
    prime, judged by ``TruncationRecord.from_json_dict``.  A line of another
    prime gets ``check_prime`` alone; a failing line is skipped with a warning."""
    if not path or not os.path.exists(path):
        return {}
    wanted, last = set(primes), {}  # last: p -> (line number, parsed line)
    import json
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise ValueError("not a JSON object")
                if data.get("seq") != seq.key:
                    continue
                p = data["p"]
                if type(p) is not int:
                    raise ValueError(f"p = {p!r} is not an integer")
                if p in wanted:
                    last[p] = lineno, data
                else:
                    check_prime(p)
            except (ValueError, KeyError, TypeError) as exc:
                _warn("%s:%d: skipping corrupt cache line (%s)", path, lineno, exc)
    out: dict[int, TruncationRecord] = {}
    for p, (lineno, data) in sorted(last.items()):
        try:
            out[p] = TruncationRecord.from_json_dict(data, seq)
        except (ValueError, KeyError, TypeError) as exc:
            _warn("%s:%d: skipping corrupt cache line (%s)", path, lineno, exc)
    return out


def append_cache(path, records: list[TruncationRecord]) -> None:
    if not path or not records:
        return
    import json

    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")


# The sequence of a pool worker, set once per worker process by the pool's
# initializer, so that the mapped tasks carry only primes.
_worker_seq: SequenceSpec | None = None


def _init_worker(seq: SequenceSpec) -> None:
    global _worker_seq
    _worker_seq = seq


def _worker_record(p: int) -> TruncationRecord:
    return compute_record(_worker_seq, p)


def sweep(
    seq: SequenceSpec,
    lo: int,
    hi: int,
    cache_path=None,
    threads: int = 1,
) -> list[TruncationRecord]:
    """One TruncationRecord per prime in [lo, hi] that the sequence covers,
    cache-backed; an external table skips, with a warning, every prime past
    its end.

    Fresh records come from ``compute_record``, serially or in the process
    pool, whose map hands each worker contiguous chunks of primes: those of
    the uncached primes and of the spot check, a seeded ~1% sample of the
    hits.  ``read_cache`` has judged every hit against the sequence, so the
    spot check guards only ``compute_record``.  A sampled hit that differs
    from its fresh record is stale: it is replaced and, like every new
    record, appended to the cache.  A record depends on its prime alone, so
    results are sorted by p and independent of thread count.
    """
    ps = primes_in_range(lo, hi)
    covered = [p for p in ps if seq.terms.size is None or p <= seq.terms.size]
    for p in ps[len(covered):]:
        _warn("%s: table too short for p=%d; prime skipped", seq.key, p)
    cached = read_cache(cache_path, seq, covered)
    # seeded, so the sample and hence the output are reproducible
    sample = random.Random(f"{seq.key}:{lo}:{hi}").sample
    sampled = set(sample(sorted(cached), max(1, len(cached) // 100))) if cached else set()
    todo = [p for p in covered if p not in cached or p in sampled]

    if threads > 1 and len(todo) > 1:
        # imported here, so that serial runs do not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # at most one worker per prime: under the fork start method the
        # pool starts all of its workers at once
        workers = min(threads, len(todo))
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(seq,)) as pool:
            fresh = list(pool.map(_worker_record, todo,
                                  chunksize=max(1, len(todo) // (4 * workers))))
    else:
        fresh = [compute_record(seq, p) for p in todo]

    changed = [rec for rec in fresh if cached.get(rec.p) != rec]
    for rec in changed:
        if rec.p in cached:
            _warn("%s: cached record at p=%d is stale; recomputed", seq.key, rec.p)
    append_cache(cache_path, changed)

    cached.update((rec.p, rec) for rec in fresh)
    return [cached[p] for p in sorted(cached)]


def mine(
    seq: SequenceSpec,
    lo: int,
    hi: int,
    cache_path=None,
    threads: int = 1,
) -> PatternReport:
    records = sweep(seq, lo, hi, cache_path=cache_path, threads=threads)
    clusters, unmatched = cluster_records(records)
    return infer_conditions(seq.key, clusters, unmatched, lo, hi, level=seq.level)


# -- rendering --------------------------------------------------------------------


def poly_str(coeffs: tuple[int, ...]) -> str:
    if not coeffs:
        return "0"
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c)) + "*"
            var = "t" if i == 1 else f"t^{i}"
            terms.append(("-" if c < 0 else "+") + f"{mag}{var}")
    if not terms:
        return "0"
    head = terms[0]
    if head.startswith("+"):
        head = head[1:]
    return head + "".join(f" {t[0]} {t[1:]}" for t in terms[1:])


def report_table(report: PatternReport, fmt: str = "text") -> str:
    if fmt == "json":
        import json

        return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    if fmt == "csv":
        lines = ["seq,lo,hi,status,cofactor,classifier,primes,exceptions"]
        for cl in report.clusters:
            # a congruence class lists its residues with commas
            cls = cl.classifier.describe() if cl.classifier else ""
            lines.append(",".join([
                report.seq, str(report.lo), str(report.hi), report.status,
                poly_str(cl.cofactor).replace(" ", ""), cls.replace(" ", "").replace(",", ";"),
                " ".join(map(str, cl.primes)),
                " ".join(map(str, cl.exceptions)),
            ]))
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"sequence {report.seq}, primes {report.lo}..{report.hi}: {report.status}"]
    width = max((len(poly_str(c.cofactor)) for c in report.clusters), default=8)
    for cl in report.clusters:
        cls = cl.classifier.describe() if cl.classifier else "(none)"
        lines.append(f"  {poly_str(cl.cofactor):<{width}}  {cls:<24}  "
                     f"[{len(cl.primes)} primes]"
                     + (f"  exceptions: {list(cl.exceptions)}" if cl.exceptions else ""))
    if report.ramified:
        lines.append(f"  ramified primes (symbol vanishes): {list(report.ramified)}")
    if report.unmatched:
        lines.append(f"  unmatched tentative lifts at: {list(report.unmatched)}")
    return "\n".join(lines) + "\n"
