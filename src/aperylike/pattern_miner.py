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

import json
import logging
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .finite_field import is_prime, legendre
from .fp_poly import FpPoly
from .kummer_galois import TruncationRecord, compute_record
from .sequences import SequenceSpec, get_sequence

log = logging.getLogger(__name__)

DEFAULT_DISCRIMINANTS = (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -11)
DEFAULT_MODULI = (3, 4, 6, 8, 12, 24)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with max(lo, 5) <= p <= hi; endpoints need not be prime."""
    return [n for n in range(max(lo, 5), hi + 1) if is_prime(n)]


# -- lifting --------------------------------------------------------------------


@dataclass(frozen=True)
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
    source_prime: int

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
        source_prime=p,
    )


# -- classifiers --------------------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass
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

    def match(rec: TruncationRecord, lift: LiftedCofactor):
        p = rec.p
        if lift.normalization == "constant":
            c0 = rec.factorization.cofactor.eval(0)
            target = rec.factorization.cofactor.scale(pow(c0, p - 2, p))
        else:
            target = rec.factorization.cofactor.monic()
        hits = [key for key in clusters
                if key[0] == lift.normalization and FpPoly(key[1], p) == target]
        return sorted(hits, key=lambda k: (len(k[1]), k[1]))

    for rec in sorted(records, key=lambda r: -r.p):
        lift = lift_cofactor(rec.factorization.cofactor, rec.p)
        hits = match(rec, lift)
        if len(hits) > 1:
            log.warning("%s p=%d: cofactor matches %d candidates; taking %s",
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
        hits = match(rec, lift)
        if hits:
            clusters[hits[0]].primes.append(p)
        else:
            log.warning("%s p=%d: tentative cofactor lift %s matches no candidate",
                        rec.seq, p, list(lift.coeffs))
            unmatched.append(p)

    for cluster in clusters.values():
        cluster.primes.sort()
    ordered = sorted(clusters.values(), key=lambda c: (len(c.coeffs), c.coeffs))
    return ordered, unmatched


# -- classifier inference --------------------------------------------------------------


@dataclass(frozen=True)
class ClusterReport:
    cofactor: tuple[int, ...]
    normalization: str
    classifier: object | None
    primes: tuple[int, ...]
    exceptions: tuple[int, ...]


@dataclass(frozen=True)
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
    sf = 1
    n, d = level, 2
    while d * d <= n:
        if n % d == 0:
            sf *= d
            while n % d == 0:
                n //= d
        d += 1
    sf *= n if n > 1 else 1
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
    itself is incomplete, so their presence forces UNRESOLVED.
    """
    good = "UNRESOLVED" if unmatched else "VALIDATED"
    if not clusters:
        return PatternReport(seq_key, lo, hi, good, (), unmatched=tuple(unmatched))
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


# -- sweeping + cache --------------------------------------------------------------


def read_cache(path, seq_key: str) -> dict[int, TruncationRecord]:
    out: dict[int, TruncationRecord] = {}
    if not path or not os.path.exists(path):
        return out
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
                log.warning("%s:%d: skipping corrupt cache line (%s)", path, lineno, exc)
                continue
            out[rec.p] = rec
    return out


def append_cache(path, records: list[TruncationRecord]) -> None:
    if not path or not records:
        return
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")


def _compute_json(args: tuple[str, int]) -> dict:
    seq_key, p = args
    return compute_record(get_sequence(seq_key), p).to_json_dict()


def sweep(
    seq: SequenceSpec,
    lo: int,
    hi: int,
    cache_path=None,
    threads: int = 1,
) -> list[TruncationRecord]:
    """One TruncationRecord per prime in [lo, hi], cache-backed.

    External sequences are skipped (with a warning) at primes their table
    cannot cover.  Results are sorted by p and independent of thread count.
    """
    ps = primes_in_range(lo, hi)
    cached = read_cache(cache_path, seq.key)
    todo = []
    for p in ps:
        if p in cached:
            continue
        if seq.is_external and len(seq.table.values) < p:
            log.warning("%s: table too short for p=%d; prime skipped", seq.key, p)
            continue
        todo.append(p)

    fresh: list[TruncationRecord] = []
    if todo:
        if threads > 1 and len(todo) > 1 and not seq.is_external:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                dicts = list(pool.map(_compute_json, [(seq.key, p) for p in todo],
                                      chunksize=max(1, len(todo) // (4 * threads))))
            fresh = [TruncationRecord.from_json_dict(d) for d in dicts]
        else:
            fresh = [compute_record(seq, p) for p in todo]
        append_cache(cache_path, fresh)

    # spot-check ~1% of cache hits against fresh computation (seeded, so the
    # sample and hence the output are reproducible)
    in_range = [p for p in sorted(cached) if lo <= p <= hi]
    if in_range:
        rng = random.Random(f"{seq.key}:{lo}:{hi}")
        for p in rng.sample(in_range, max(1, len(in_range) // 100)):
            rec = compute_record(seq, p)
            if cached[p].to_json_dict() != rec.to_json_dict():
                log.warning("%s: cached record at p=%d is stale; recomputed", seq.key, p)
                cached[p] = rec

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
