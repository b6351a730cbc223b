"""Command-line surface.

Exit codes: 0 success / verified; 1 verification failure or theorem
mismatch (or UNRESOLVED mining under --strict); 2 usage error; 3
unsupported modulus (2, 3, or composite).  Results go to stdout,
diagnostics to stderr.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from . import KERNEL_BACKEND, kummer_galois, modular_relations, pattern_miner, sequences
from .errors import IdentityViolationError, UnsupportedPrimeError
from .finite_field import Prime
from .pattern_miner import primes_in_range

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_PRIME = 3


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected a range like 5..499")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from None


def _order(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="aperylike",
        description="Truncations of Apery-like series mod p: factorizations, "
                    "Kummer-Galois degrees, identity verification, pattern mining.")
    top.add_argument("--timestamp", action="store_true",
                     help="prepend a generation timestamp (off keeps output reproducible)")
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(sp, prime=True, rng=True):
        sp.add_argument("--seq", required=True,
                        help="catalog name, gen:r,s, or @/path/to/bfile")
        if prime:
            sp.add_argument("--prime", type=int)
        if rng:
            sp.add_argument("--primes", type=_parse_range, metavar="LO..HI")
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")

    sp = sub.add_parser("catalog", help="list built-in sequences")
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")

    sp = sub.add_parser("truncate", help="coefficients of A_p")
    add_common(sp, rng=False)

    sp = sub.add_parser("cofactor", help="factor A_p = c * P * B^2")
    add_common(sp, rng=False)

    sp = sub.add_parser("galois", help="Kummer-Galois degree of A_p")
    add_common(sp)
    sp.add_argument("--check-theorem", action="store_true",
                    help="compare against the congruence-class prediction (families only)")

    sp = sub.add_parser("verify", help="run an identity verifier")
    sp.add_argument("check", choices=("lucas", "kummer", "ode", "twist", "endpoint",
                                      "hypergeometric", "substitution", "quadratic"))
    sp.add_argument("--seq", help="sequence or family name where applicable")
    sp.add_argument("--prime", type=int)
    sp.add_argument("--primes", type=_parse_range, metavar="LO..HI")
    sp.add_argument("--order", type=_order, default=None,
                    help="series precision for series-based checks, at least 1 "
                         "(default 100, or 3p for the kummer check, which needs "
                         "more than p; the 2F1 link check caps it at p-1)")

    sp = sub.add_parser("mine", help="sweep primes, cluster cofactors, infer classifiers")
    add_common(sp, prime=False)
    sp.add_argument("--cache", default=os.environ.get("APERY_CACHE"),
                    help="JSONL cache path (default: $APERY_CACHE)")
    sp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    sp.add_argument("--strict", action="store_true",
                    help="exit 1 when the mining status is UNRESOLVED")
    return top


def _primes_for(args) -> list[int]:
    if args.prime is not None and args.primes is not None:
        raise UsageError("--prime and --primes are mutually exclusive")
    if args.prime is not None:
        return [Prime(args.prime).value]
    if args.primes is not None:
        lo, hi = args.primes
        primes = primes_in_range(lo, hi)
        if not primes:
            raise UsageError(f"--primes {lo}..{hi} holds no prime >= 5")
        return primes
    raise UsageError("one of --prime / --primes is required")


class UsageError(Exception):
    pass


def _emit(line: str = ""):
    sys.stdout.write(line + "\n")


def _emit_json(obj, indent=None):
    import json

    _emit(json.dumps(obj, indent=indent))


# -- subcommands -----------------------------------------------------------------


def _cmd_catalog(args) -> int:
    rows = [(s.key, s.description, s.level, s.oeis)
            for s in sequences.CATALOG.values()]
    if args.format == "json":
        _emit_json([{"seq": k, "definition": d, "level": lv, "oeis": o}
                    for k, d, lv, o in rows], indent=2)
    elif args.format == "csv":
        _emit("seq,definition,level,oeis")
        for k, d, lv, o in rows:
            _emit(f"{k},{d.replace(',', ';')},{lv if lv else ''},{o or ''}")
    else:
        w = max(len(k) for k, *_ in rows)
        for k, d, lv, o in rows:
            level = f" level={lv}" if lv else ""
            _emit(f"{k:<{w}}  a(n) = {d}{level}  [{o}]")
        _emit("also: gen:r,s (generalized two-exponent family), @/path (external b-file)")
    return EXIT_OK


def _cmd_truncate(args) -> int:
    seq = sequences.get_sequence(args.seq)
    if args.prime is None:
        raise UsageError("truncate needs --prime")
    p = Prime(args.prime).value
    a_p = sequences.truncation_poly(seq, p)
    if args.format == "json":
        _emit_json({"seq": seq.key, "p": p, "A": list(a_p.coeffs)})
    elif args.format == "csv":
        _emit("seq,p,coeffs")
        _emit(f"{seq.key},{p},{' '.join(map(str, a_p.coeffs))}")
    else:
        _emit(f"A_{p}({seq.key}) = {a_p}")
    return EXIT_OK


def _cmd_cofactor(args) -> int:
    seq = sequences.get_sequence(args.seq)
    if args.prime is None:
        raise UsageError("cofactor needs --prime")
    p = Prime(args.prime).value
    fact = sequences.truncation_poly(seq, p).square_cofactor()
    lift = pattern_miner.lift_cofactor(fact.cofactor, p)
    if args.format == "json":
        _emit_json({
            "seq": seq.key, "p": p, "c": fact.c,
            "P": list(fact.cofactor.coeffs), "B": list(fact.root.coeffs),
            "lift": {"coeffs": list(lift.coeffs),
                     "normalization": lift.normalization,
                     "reliable": lift.reliable},
        })
    elif args.format == "csv":
        _emit("seq,p,c,P,B,lift,reliable")
        _emit(f"{seq.key},{p},{fact.c},{' '.join(map(str, fact.cofactor.coeffs))},"
              f"{' '.join(map(str, fact.root.coeffs))},"
              f"{' '.join(map(str, lift.coeffs))},{lift.reliable}")
    else:
        _emit(f"A_{p}({seq.key}) = {fact.c} * ({fact.cofactor}) * ({fact.root})^2")
        tag = "" if lift.reliable else " (tentative: p too small for this height)"
        _emit(f"lifted cofactor ({lift.normalization} normalization): "
              f"{pattern_miner.poly_str(lift.coeffs)}{tag}")
    return EXIT_OK


def _cmd_galois(args) -> int:
    seq = sequences.get_sequence(args.seq)
    check = args.check_theorem
    if check and seq.key not in kummer_galois.FAMILIES:
        raise UsageError(f"--check-theorem needs a family sequence, not {seq.key}")
    rows = []
    status = EXIT_OK
    for rec in pattern_miner.records(seq, _primes_for(args)):
        row = {"p": rec.p, "degree": rec.galois.degree, "label": rec.galois.describe()}
        if check:
            row["predicted"] = rec.predicted_label
            row["cofactor_match"] = rec.factorization.cofactor == rec.predicted_cofactor
            row["match"] = bool(rec.matches_prediction)
            if not row["match"]:
                status = EXIT_FAIL
        rows.append(row)
    if args.format == "json":
        _emit_json({"seq": seq.key, "rows": rows}, indent=2)
    elif args.format == "csv":
        cols = list(rows[0])
        _emit(",".join(cols))
        for row in rows:
            _emit(",".join(str(row[c]) for c in cols))
    else:
        for row in rows:
            extra = ""
            if check:
                extra = (f"  predicted={row['predicted']}"
                         f"  {'ok' if row['match'] else 'MISMATCH'}")
            _emit(f"p={row['p']:<6} degree={row['degree']:<8} label={row['label']}{extra}")
    return status


def _cmd_verify(args) -> int:
    check = args.check
    needs_seq = check in ("lucas", "kummer", "twist", "substitution", "quadratic")
    seq = None
    if needs_seq:
        if not args.seq:
            raise UsageError(f"verify {check} needs --seq")
        seq = sequences.get_sequence(args.seq)
        if check in ("twist", "substitution", "quadratic") and seq.key not in (
                "apery", "domb", "az"):
            raise UsageError(f"verify {check} applies to apery/domb/az, not {seq.key}")
    primes = _primes_for(args)
    if check == "kummer" and args.order is not None and args.order <= primes[-1]:
        # below index p+1 the relation reads A_p = A_p * a_0, true whenever
        # a_0 = 1, so it would pass without comparing a constrained coefficient
        raise UsageError(f"verify kummer needs --order > p; {args.order} <= {primes[-1]}")
    failures = 0
    for p in primes:
        try:
            ok, detail = _run_check(check, seq, p, args)
        except IdentityViolationError as exc:
            ok, detail = False, str(exc)
        failures += not ok
        _emit(f"{check} p={p}: {'PASS' if ok else 'FAIL'}{(' ' + detail) if detail else ''}")
    return EXIT_FAIL if failures else EXIT_OK


def _run_check(check: str, seq, p: int, args) -> tuple[bool, str]:
    order = args.order if args.order is not None else 100
    if check == "lucas":
        report = sequences.verify_lucas_property(seq, p)
        return report.ok, "" if report.ok else f"counterexample (n,l)={report.counterexample}"
    if check == "kummer":
        n = args.order if args.order is not None else 3 * p
        report = kummer_galois.verify_kummer_relation(seq, p, n)
        return report.ok, "" if report.ok else f"first mismatch at index {report.mismatch_index}"
    if check == "ode":
        return modular_relations.verify_ode(p), ""
    if check == "twist":
        sign = modular_relations.verify_sigma_twist(seq.key, p)
        return True, f"sign={'+1' if sign == 1 else '-1'}"
    if check == "endpoint":
        a = modular_relations.verify_endpoint_constant(p)
        return True, f"H(-1)={'1' if a == 1 else '-1'}"
    if check == "hypergeometric":
        # one build of the series serves both checks
        link = modular_relations.gauss_link(p, max(p, order))
        ok = modular_relations.verify_h_2f1_relation(p, order, link)
        ok2 = modular_relations.verify_H_power_identity(p, max(p, order), link)
        return ok and ok2, "" if ok and ok2 else f"link={ok} power={ok2}"
    if check == "substitution":
        res = modular_relations.verify_substitution(seq.key, p, order)
        return True, f"sign={'+' if res.sign == 1 else '-'}"
    if check == "quadratic":
        res = modular_relations.verify_quadratic(seq.key, p)
        inv = modular_relations.verify_sigma_involution(seq.key, p)
        fixed = modular_relations.verify_t_fixed_by_sigma(seq.key, p)
        ok = res.ok and inv and fixed
        detail = f"disc_sign={res.disc_sign:+d}"
        if not ok:
            detail += f" x_solves={res.x_solves} sigma={res.sigma_solves} inv={inv} tfix={fixed}"
        return ok, detail
    raise UsageError(f"unknown check {check}")


def _cmd_mine(args) -> int:
    seq = sequences.get_sequence(args.seq)
    if args.primes is None:
        raise UsageError("mine needs --primes LO..HI")
    lo, hi = args.primes
    report = pattern_miner.mine(seq, lo, hi, cache_path=args.cache,
                                threads=max(1, args.threads))
    sys.stdout.write(pattern_miner.report_table(report, args.format))
    if args.strict and report.status != "VALIDATED":
        return EXIT_FAIL
    return EXIT_OK


def main(argv=None) -> int:
    # imported here, not with the module: only a run configures logging
    import logging

    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.timestamp:
        _emit(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}, "
              f"kernel backend: {KERNEL_BACKEND}")
    handlers = {
        "catalog": _cmd_catalog,
        "truncate": _cmd_truncate,
        "cofactor": _cmd_cofactor,
        "galois": _cmd_galois,
        "verify": _cmd_verify,
        "mine": _cmd_mine,
    }
    try:
        return handlers[args.command](args)
    except UnsupportedPrimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PRIME
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
