"""Run the aperylike CLI once with timing spans around named library functions.

Usage: python3 perfbench/trace_cli.py SUMMARY.json -- CLI-ARGUMENTS...

The functions in TARGETS are replaced, before the CLI starts, by wrappers that
record one span (name, start, end, parent, size) per call in memory.  Every
reference to the original function object found in an ``aperylike`` module or
in the owning class is replaced too, so calls through names imported into
other modules, and calls a kernel backend makes to its own functions, are
traced as well.  A target that no longer exists is listed as absent instead of
failing the run.

At exit the spans are reduced to per-name totals and written to SUMMARY.json:
calls, inclusive seconds, own seconds (span minus its child spans), seconds
spent in direct children by child name, summed size, and the few derived
totals run.py needs.  The CLI's standard output is left untouched and its
exit code is passed through.
"""
from __future__ import annotations

import importlib
import json
import logging
import sys
import time


def _product_size(args, result):
    return len(args[0]) * len(args[1])


def _series_size(args, result):
    """Coefficient products a truncated series product needs: pairs i < len(a),
    j < len(b) with i + j < n."""
    n = args[2]
    la, lb = min(len(args[0]), n), min(len(args[1]), n)
    full = min(la, max(0, n - lb + 1))  # rows i where all lb products count
    rest = la - full                    # rows i contribute n - i products each
    return full * lb + rest * (2 * n - 2 * full - rest + 1) // 2


def _result_len(args, result):
    return len(result)


# (module, attribute, span name, size of a call from (args, result) or None)
TARGETS = [
    ("aperylike.sequences", "coefficients_mod_p", "sequences.coefficients_mod_p", _result_len),
    ("aperylike.sequences", "truncation_poly", "sequences.truncation_poly", None),
    ("aperylike.sequences", "load_external", "sequences.load_external", None),
    ("aperylike.kernels", "poly_mul", "kernels.poly_mul", _product_size),
    ("aperylike.kernels", "poly_divrem", "kernels.poly_divrem", None),
    ("aperylike.kernels", "poly_gcd", "kernels.poly_gcd", None),
    ("aperylike.kernels", "series_mul", "kernels.series_mul", _series_size),
    ("aperylike.kernels", "series_inv", "kernels.series_inv", None),
    ("aperylike.fp_poly", "FpPoly.squarefree_decomposition", "fp_poly.squarefree", None),
    ("aperylike.fp_poly", "FpPoly.square_cofactor", "fp_poly.square_cofactor", None),
    ("aperylike.fp_series", "FpSeries.compose", "fp_series.compose", None),
    ("aperylike.fp_series", "FpSeries.__mul__", "fp_series.mul", None),
    ("aperylike.kummer_galois", "compute_record", "kummer_galois.compute_record", None),
    ("aperylike.kummer_galois", "galois_degree", "kummer_galois.galois_degree", None),
    ("aperylike.kummer_galois", "predicted_group", "kummer_galois.predicted_group", None),
    ("aperylike.kummer_galois", "predicted_cofactor", "kummer_galois.predicted_cofactor", None),
    ("aperylike.modular_relations", "verify_h_2f1_relation", "modular_relations.h_2f1", None),
    ("aperylike.modular_relations", "verify_H_power_identity",
     "modular_relations.power_identity", None),
    ("aperylike.pattern_miner", "sweep", "pattern_miner.sweep", None),
    ("aperylike.pattern_miner", "append_cache", "pattern_miner.append_cache", None),
    ("aperylike.pattern_miner", "cluster_records", "pattern_miner.cluster_records", None),
    ("aperylike.pattern_miner", "infer_conditions", "pattern_miner.infer_conditions", None),
]

# Spans whose outermost occurrences make up the truncation layer: the library
# entry point and the bulk kernels, which modular_relations also calls directly.
TRUNCATION_ENTRY = "sequences.coefficients_mod_p"
TRUNC_KERNEL_PREFIX = "kernels.trunc_"


class Tracer:
    """Collects spans for the wrapped functions of one process."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, size)
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.warnings = 0

    def wrap(self, name, fn, size=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = size(args, result) if size and result is not None else 0
                spans[idx] = (name, start, end, parent, n)

        return traced

    def install(self):
        for module_name, attr, name, size in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, fn_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._replace(owner, original, self.wrap(name, original, size))
        try:
            kernels = importlib.import_module("aperylike.kernels")
            trunc_funcs = kernels.TRUNC_FUNCS
        except (ImportError, AttributeError):
            self.absent.append(TRUNC_KERNEL_PREFIX + "*")
            return
        for key, original in list(trunc_funcs.items()):
            wrapped = self.wrap(TRUNC_KERNEL_PREFIX + key, original, _result_len)
            trunc_funcs[key] = wrapped
            self._replace(None, original, wrapped)

    def _replace(self, owner, original, wrapped):
        """Point every aperylike module attribute (and owner attribute) that
        holds ``original`` at ``wrapped``."""
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "aperylike" or n.startswith("aperylike."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
        if isinstance(owner, type):
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)

    def count_warnings(self):
        tracer = self

        class Counter(logging.Handler):
            def emit(self, record):
                tracer.warnings += 1

        logging.getLogger("aperylike").addHandler(Counter(logging.WARNING))

    def summary(self) -> dict:
        spans = self.spans
        per: dict[str, dict] = {}
        for name, start, end, parent, size in spans:
            entry = per.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "own_s": 0.0,
                                          "size": 0, "children_s": {}})
            entry["calls"] += 1
            entry["inclusive_s"] += end - start
            entry["own_s"] += end - start
            entry["size"] += size
        for name, start, end, parent, size in spans:
            if parent >= 0:
                pname = spans[parent][0]
                entry = per[pname]
                entry["own_s"] -= end - start
                entry["children_s"][name] = entry["children_s"].get(name, 0.0) + end - start

        def ancestors(idx):
            while idx >= 0:
                yield spans[idx][0]
                idx = spans[idx][3]

        truncation_s = 0.0
        coeffs = 0
        recomputed = 0
        for name, start, end, parent, size in spans:
            if name == TRUNCATION_ENTRY or name.startswith(TRUNC_KERNEL_PREFIX):
                outer = not any(a == TRUNCATION_ENTRY or a.startswith(TRUNC_KERNEL_PREFIX)
                                for a in ancestors(parent))
                if outer:
                    truncation_s += end - start
                    coeffs += size
            elif name == "kummer_galois.compute_record":
                recomputed += "pattern_miner.sweep" in ancestors(parent)
        return {
            "functions": per,
            "truncation_s": truncation_s,
            "coeffs": coeffs,
            "recomputed": recomputed,
            "warnings": self.warnings,
            "absent": self.absent,
            "spans": len(spans),
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_cli.py SUMMARY.json -- CLI-ARGUMENTS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    from aperylike import cli  # loads every module the targets live in

    tracer = Tracer()
    tracer.install()
    tracer.count_warnings()
    try:
        status = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
