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

from ._record import field, record
from .finite_field import factorize, is_prime, legendre
from .fp_poly import FpPoly, SquareCofactor
from .kummer_galois import GaloisResult, TruncationRecord, certify, compute_record
from .sequences import SequenceSpec, truncation_poly

DEFAULT_DISCRIMINANTS = (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -11)
DEFAULT_MODULI = (3, 4, 6, 8, 12, 24)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with max(lo, 5) <= p <= hi; endpoints need not be prime."""
    return [n for n in range(max(lo, 5), hi + 1) if is_prime(n)]


def _warn(msg: str, *args) -> None:
    """Log a warning on this module's logger.  ``logging`` is imported here,
    not with the module, so that importing the package does not load it."""
    import logging

    logging.getLogger(__name__).warning(msg, *args, stacklevel=2)


# -- lifting --------------------------------------------------------------------


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
    normalization: str       # "constant" | "monic"
    reliable: bool

    def reduce_mod(self, p: int) -> FpPoly:
        return FpPoly(self.coeffs, p)


def _symmetric(c: int, p: int) -> int:
    return c - p if c > p // 2 else c


def lift_cofactor(cofactor: FpPoly, p: int) -> LiftedCofactor:
    if not cofactor:
        raise ZeroDivisionError("cannot lift the zero polynomial")
    c0 = cofactor.eval(0)
    if c0 != 0:
        scaled = cofactor.scale(pow(c0, p - 2, p))
        normalization = "constant"
    else:
        scaled = cofactor.monic()
        normalization = "monic"
    lifted = tuple(_symmetric(c, p) for c in scaled.coeffs)
    height = max((abs(c) for c in lifted), default=0)
    return LiftedCofactor(
        coeffs=lifted,
        normalization=normalization,
        reliable=p > 2 * height + 1,
    )


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
        return p % self.modulus in self.residues

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


def classifier_from_json(data: dict):
    kind = data["kind"]
    if kind == "legendre":
        return LegendreProfile(tuple((int(d), int(e)) for d, e in data["symbols"]))
    if kind == "congruence":
        return CongruenceClass(int(data["modulus"]), tuple(int(r) for r in data["residues"]))
    if kind == "always":
        return AlwaysTrue()
    raise ValueError(f"unknown classifier kind {kind!r}")


# -- clustering --------------------------------------------------------------------


@record(frozen=False)
class Cluster:
    key: tuple[str, tuple[int, ...]]  # (normalization, constant-first integer coeffs)
    primes: list[int] = field(default_factory=list)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.key[1]

    @property
    def normalization(self) -> str:
        return self.key[0]


def cluster_records(records: list[TruncationRecord]) -> tuple[list[Cluster], list[int]]:
    """Group records by the integer lift of their cofactor.

    Records are processed by descending prime: a lift whose height clears
    the reliability bound seeds an integer candidate, and every later
    (smaller) prime is matched by reducing the known candidates mod p.
    A small prime can pass the height heuristic with a wrong lift, so
    candidate matching always takes precedence over seeding.  Primes whose
    tentative lift never matches any candidate are returned separately.
    """
    clusters: dict[tuple[str, tuple[int, ...]], Cluster] = {}
    pending: list[tuple[int, TruncationRecord, LiftedCofactor]] = []

    def match(p: int, lift: LiftedCofactor):
        target = lift.reduce_mod(p)
        hits = [key for key in clusters
                if key[0] == lift.normalization and FpPoly(key[1], p) == target]
        return sorted(hits, key=lambda k: (len(k[1]), k[1]))

    for rec in sorted(records, key=lambda r: -r.p):
        lift = lift_cofactor(rec.factorization.cofactor, rec.p)
        hits = match(rec.p, lift)
        if len(hits) > 1:
            _warn("%s p=%d: cofactor matches %d candidates; taking %s",
                  rec.seq, rec.p, len(hits), list(hits[0][1]))
        if hits:
            clusters[hits[0]].primes.append(rec.p)
        elif lift.reliable:
            key = (lift.normalization, lift.coeffs)
            clusters.setdefault(key, Cluster(key=key)).primes.append(rec.p)
        else:
            pending.append((rec.p, rec, lift))

    unmatched: list[int] = []
    for p, rec, lift in sorted(pending):
        hits = match(p, lift)
        if hits:
            clusters[hits[0]].primes.append(p)
        else:
            _warn("%s p=%d: tentative cofactor lift %s matches no candidate",
                  rec.seq, p, list(lift.coeffs))
            unmatched.append(p)

    for cluster in clusters.values():
        cluster.primes.sort()
    ordered = sorted(clusters.values(), key=lambda c: (len(c.coeffs), c.coeffs))
    return ordered, unmatched


# -- classifier inference --------------------------------------------------------------


@record
class ClusterReport:
    cofactor: tuple[int, ...]
    normalization: str
    classifier: object | None
    primes: tuple[int, ...]
    exceptions: tuple[int, ...]


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


def _assign(clusters: list[Cluster], classifiers: list) -> tuple[bool, dict, list[int]]:
    """Try to assign one classifier per cluster so that every non-ramified
    prime lands exactly in its own cluster's class.

    Returns (exact, assignment, ramified primes).
    """
    assignment: dict = {}
    ramified: list[int] = []
    used = set()
    for cl in clusters:
        chosen = None
        for idx, cand in enumerate(classifiers):
            if idx in used:
                continue
            verdicts = [cand.matches(p) for p in cl.primes]
            if all(v is not False for v in verdicts):
                chosen = idx
                break
        if chosen is None:
            return False, {}, []
        used.add(chosen)
        assignment[cl.key] = classifiers[chosen]
    # exactness: every prime matches only its own class
    for cl in clusters:
        own = assignment[cl.key]
        for p in cl.primes:
            v = own.matches(p)
            if v is None:
                ramified.append(p)
                continue
            for other_key, other in assignment.items():
                if other_key == cl.key:
                    continue
                if other.matches(p) is True:
                    return False, {}, []
    return True, assignment, sorted(ramified)


def infer_conditions(
    seq_key: str,
    clusters: list[Cluster],
    unmatched: list[int],
    lo: int,
    hi: int,
    level: int | None = None,
) -> PatternReport:
    """Search the classifier language for an exact partition of the sweep.

    Primes whose cofactor lift never matched a candidate mean the clustering
    itself is incomplete, so their presence forces UNRESOLVED.  So does an
    empty sweep: with no cluster there is nothing that was validated.
    """
    good = "UNRESOLVED" if unmatched else "VALIDATED"
    if not clusters:
        return PatternReport(seq_key, lo, hi, "UNRESOLVED", (), unmatched=tuple(unmatched))
    if len(clusters) == 1:
        entry = ClusterReport(clusters[0].coeffs, clusters[0].normalization,
                              AlwaysTrue(), tuple(clusters[0].primes), ())
        return PatternReport(seq_key, lo, hi, good, (entry,),
                             unmatched=tuple(unmatched))

    singles = _candidate_singles(level)
    trials: list[list] = []
    if len(clusters) <= 2:
        for d in singles:
            trials.append([LegendreProfile(((d, 1),)), LegendreProfile(((d, -1),))])
    if len(clusters) <= 4:
        for i, d1 in enumerate(singles):
            for d2 in singles[i + 1:]:
                trials.append([
                    LegendreProfile(((d1, e1), (d2, e2)))
                    for e1 in (1, -1) for e2 in (1, -1)
                ])
    for m in DEFAULT_MODULI:
        residues: dict[int, set[int]] = {}
        ok = True
        for cl in clusters:
            rs = {p % m for p in cl.primes}
            for prev in residues.values():
                if rs & prev:
                    ok = False
                    break
            if not ok:
                break
            residues[id(cl)] = rs
        if ok:
            trials.append([CongruenceClass(m, tuple(sorted(residues[id(cl)])))
                           for cl in clusters])

    best_entries = None
    for classifiers in trials:
        exact, assignment, ramified = _assign(clusters, list(classifiers))
        if exact:
            entries = tuple(
                ClusterReport(cl.coeffs, cl.normalization, assignment[cl.key],
                              tuple(cl.primes), ())
                for cl in clusters
            )
            return PatternReport(seq_key, lo, hi, good, entries,
                                 ramified=tuple(ramified), unmatched=tuple(unmatched))
        if best_entries is None:
            best_entries = classifiers
    # unresolved: report the first-tried classifier family with its exceptions
    entries = []
    for idx, cl in enumerate(clusters):
        cand = best_entries[idx] if best_entries and idx < len(best_entries) else None
        exceptions = tuple(p for p in cl.primes if cand and cand.matches(p) is False)
        entries.append(ClusterReport(cl.coeffs, cl.normalization, cand,
                                     tuple(cl.primes), exceptions))
    return PatternReport(seq_key, lo, hi, "UNRESOLVED", tuple(entries),
                         unmatched=tuple(unmatched))


# -- records ---------------------------------------------------------------------


def records(seq: SequenceSpec, primes, learned: list[LiftedCofactor] | None = None
            ) -> list[TruncationRecord]:
    """The record of each prime, in the order given: the one ``compute_record``
    makes, but proved from a guessed cofactor wherever that works.

    At each prime the truncation is certified (``kummer_galois.certify``)
    with the cofactor P = 1 first and then with the learned lifts, newest
    first, each reduced mod p and made monic.  A prime that no candidate
    proves falls back to the squarefree decomposition, exactly as in
    ``compute_record`` but of the truncation already in hand: for
    ``gen:r,s`` a second truncation would cost as much as the decomposition.

    A record's cofactor lift is learned when it is reliable, of lower degree
    than the record's root, and new (``_learn``).  The lifts come from
    records of the sequence alone, never from a prediction, so
    ``--check-theorem`` still compares two independent computations.
    ``learned`` carries them from call to call (a pool worker keeps one list
    for all its tasks, and ``sweep`` seeds it with its cache hits).  A
    certified record is unique, so the candidates change only the time a
    record takes, never the record.
    """
    learned = [] if learned is None else learned
    out = []
    for p in primes:
        a = truncation_poly(seq, p)
        a_values: list[int] = []  # A at the filter points, shared by the candidates
        candidates = [FpPoly.one(p)] + [lift.reduce_mod(p).monic() for lift in reversed(learned)]
        found = None
        for cand in dict.fromkeys(candidates):  # each distinct candidate once, in order
            found = certify(a, cand, a_values)
            if found:
                break
        if not found:
            parts = a.squarefree_decomposition()
            found = SquareCofactor.from_parts(a, parts), GaloisResult.from_parts(a, parts)
        _learn(learned, found[0], p)
        out.append(TruncationRecord(seq.key, p, a, *found))
    return out


def _learn(learned: list[LiftedCofactor], fact: SquareCofactor, p: int) -> None:
    """Append the lift of the cofactor of A = c*P*B^2 at p to ``learned``
    when it is reliable, deg P < deg B and the lift is new."""
    if fact.cofactor.degree < fact.root.degree:
        lift = lift_cofactor(fact.cofactor, p)
        if lift.reliable and lift not in learned:
            learned.append(lift)


# -- sweeping + cache --------------------------------------------------------------


def read_cache(path, seq_key: str) -> dict[int, TruncationRecord]:
    out: dict[int, TruncationRecord] = {}
    if not path or not os.path.exists(path):
        return out
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
                if data.get("seq") != seq_key:
                    continue
                rec = TruncationRecord.from_json_dict(data)
            except (ValueError, KeyError, TypeError) as exc:
                _warn("%s:%d: skipping corrupt cache line (%s)", path, lineno, exc)
                continue
            out[rec.p] = rec
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
# initializer, so that the mapped tasks carry only primes, and the cofactor
# lifts the worker has learned, which ``records`` carries across its tasks
# (seeded with the lifts of the sweep's cache hits).
_worker_seq: SequenceSpec | None = None
_worker_learned: list[LiftedCofactor] = []


def _init_worker(seq: SequenceSpec, *learned: LiftedCofactor) -> None:
    global _worker_seq, _worker_learned
    _worker_seq = seq
    _worker_learned = list(learned)


def _worker_record(p: int) -> TruncationRecord:
    return records(_worker_seq, [p], _worker_learned)[0]


def sweep(
    seq: SequenceSpec,
    lo: int,
    hi: int,
    cache_path=None,
    threads: int = 1,
) -> list[TruncationRecord]:
    """One TruncationRecord per prime in [lo, hi], cache-backed.

    Fresh records come from ``records``, serially or in the process pool,
    whose map hands each worker contiguous chunks of primes.  External
    sequences are skipped (with a warning) at primes their table cannot
    cover.  ``records`` starts with the lifts the cached records of the
    sequence teach, in ascending p, so a resumed sweep need not relearn
    them.  Results are sorted by p and independent of thread count.  A
    cache hit found stale by the spot check is recomputed and its record
    appended to the cache, where the last line for a prime wins.
    """
    ps = primes_in_range(lo, hi)
    cached = read_cache(cache_path, seq.key)
    todo = []
    for p in ps:
        if p in cached:
            continue
        if seq.is_external and len(seq.table.values) < p:
            _warn("%s: table too short for p=%d; prime skipped", seq.key, p)
            continue
        todo.append(p)
    learned: list[LiftedCofactor] = []
    for p in sorted(cached):
        _learn(learned, cached[p].factorization, p)

    if threads > 1 and len(todo) > 1:
        # imported here, so that serial runs do not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads, initializer=_init_worker,
                                 initargs=(seq, *learned)) as pool:
            fresh = list(pool.map(_worker_record, todo,
                                  chunksize=max(1, len(todo) // (4 * threads))))
    else:
        fresh = records(seq, todo, learned)
    append_cache(cache_path, fresh)

    # spot-check ~1% of cache hits against fresh computation (seeded, so the
    # sample and hence the output are reproducible)
    in_range = [p for p in sorted(cached) if lo <= p <= hi]
    corrected = []
    if in_range:
        rng = random.Random(f"{seq.key}:{lo}:{hi}")
        for p in rng.sample(in_range, max(1, len(in_range) // 100)):
            rec = compute_record(seq, p)
            if cached[p] != rec:
                _warn("%s: cached record at p=%d is stale; recomputed", seq.key, p)
                cached[p] = rec
                corrected.append(rec)
    append_cache(cache_path, corrected)

    merged = {rec.p: rec for rec in fresh}
    merged.update(cached)
    return [merged[p] for p in sorted(merged) if lo <= p <= hi]


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
            lines.append(",".join([
                report.seq, str(report.lo), str(report.hi), report.status,
                poly_str(cl.cofactor).replace(" ", ""),
                (cl.classifier.describe() if cl.classifier else "").replace(" ", ""),
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
