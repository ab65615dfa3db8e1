"""Spans around the public entry points of each orbitforge module.

``Tracer.install()`` replaces each listed function or method by a wrapper
that records a span (name, query, parent, start, end, raised).  Names that
other modules re-bound with ``from .x import y`` are replaced as well.  Spans
stay in memory; ``summary()`` turns them into per-layer calls, self time and
errors, and into the input-property counts, which are computed from call
arguments and return values only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "exact": ["poly_resultant", "Poly.compose", "LaurentBlock.__mul__",
              "LaurentBlock.inverse", "LaurentBlock.compose_poly",
              "evaluate_series_at_block"],
    "ball": ["horner_ball", "eval_poly_ball", "eval_block_ball"],
    "rootcert": ["certified_roots"],
    "factor": ["factor_rational", "bivariate_irreducible"],
    "dynamics": ["classify_orbit", "escaping_critical_points", "PolyDS.iterate"],
    "boettcher": ["psi_series", "phi_series", "psi_equation_residual",
                  "phi_equation_residual", "phi_psi_identity_residual",
                  "evaluate_psi", "radius_archimedean"],
    "green": ["green_eval", "green_functional_check", "equipotential_trace"],
    "padic": ["PadicScalar.__mul__", "PadicScalar.__add__", "newton_polygon",
              "count_zeros_pj"],
    "orbits": ["canonical_height", "small_orbit_level", "grand_orbit_points"],
    "curves": ["intersect_small_orbit", "is_special_curve", "build_nu",
               "nu_estimates"],
    "combinat": ["coset_points_in_box", "find_primitive_decomposition",
                 "decompose_root_pair"],
    "cli": ["main"],
}

# Entry points whose arguments and results feed the input-property counts.
_OBSERVED = {"green.green_eval", "boettcher.psi_series", "boettcher.phi_series",
             "exact.poly_resultant", "rootcert.certified_roots",
             "combinat.coset_points_in_box",
             "combinat.find_primitive_decomposition",
             "combinat.decompose_root_pair"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []          # (name id, query, parent, t0, t1, raised)
        self.observed: list = []       # (name, args, result)
        self.query = -1                # index of the query being answered
        self.active = False            # record only while a query runs
        self._stack: list[int] = []

    # -- installation ---------------------------------------------------------
    def install(self, extra_modules=()) -> None:
        """Wrap every entry point of LAYERS.  ``extra_modules`` are further
        modules (the benchmark's own) whose re-bound names are replaced."""
        for layer, targets in LAYERS.items():
            mod = importlib.import_module(f"orbitforge.{layer}")
            for target in targets:
                name = f"{layer}.{target}"
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(cls.__dict__[meth], name))
                    continue
                original = getattr(mod, target)
                wrapper = self._wrap(original, name)
                holders = [m for key, m in sys.modules.items()
                           if key.startswith("orbitforge")] + list(extra_modules)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        observed = self.observed if name in _OBSERVED else None

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name_id, self.query, parent, t0, t1, raised)
            if observed is not None:
                observed.append((name, args, result))
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results ---------------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer calls/self_s/errors plus the input-property counts."""
        child = [0.0] * len(self.spans)
        for _nid, _q, parent, t0, t1, _raised in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        for idx, (nid, _q, _parent, t0, t1, raised) in enumerate(self.spans):
            layer = self.names[nid].split(".", 1)[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += (t1 - t0) - child[idx]
            out[f"{layer}.errors"] += raised
        out.update(self._counts())
        return out

    def _counts(self) -> dict:
        by_name = defaultdict(list)
        for name, args, result in self.observed:
            by_name[name].append((args, result))
        greens = [res for _args, res in by_name["green.green_eval"]]
        series = [(name, tuple(args[0].f.coeffs), args[1])
                  for name in ("boettcher.psi_series", "boettcher.phi_series")
                  for args, _res in by_name[name]]
        resultants = [args for args, _res in by_name["exact.poly_resultant"]]
        lattices = []
        for name in ("combinat.coset_points_in_box",
                     "combinat.find_primitive_decomposition",
                     "combinat.decompose_root_pair"):
            for args, _res in by_name[name]:
                if name == "combinat.decompose_root_pair":
                    a1, a2, N = args[:3]
                    rest = args[3:]
                else:
                    a1, a2, N = args[0].a1, args[0].a2, args[0].N
                    rest = args[1:]
                lattices.append((name, N, _lattice_key(a1, a2, N), rest))
        return {
            "green.steps": sum(g.iterations_used for g in greens),
            "green.bounded_share": _share(sum(not g.escaped for g in greens),
                                          len(greens)),
            "boettcher.repeat_share": _repeat_share(series),
            "exact.resultant_repeat_share": _repeat_share(resultants),
            "rootcert.roots": sum(len(res) for _a, res
                                  in by_name["rootcert.certified_roots"]),
            "combinat.box_points": sum(res.count for _a, res
                                       in by_name["combinat.coset_points_in_box"]),
            "combinat.repeat_share": _repeat_share(lattices),
        }

    def dump(self, path: str) -> None:
        """Write the spans as JSON: names plus one row per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "query", "parent", "start", "end", "raised"],
                       "names": self.names, "spans": self.spans}, fh)


def _lattice_key(a1: int, a2: int, N: int) -> frozenset:
    """The subgroup {k*a mod N} of (Z/N)^2: equal keys, equal lattices."""
    return frozenset(((k * a1) % N, (k * a2) % N) for k in range(N))


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _repeat_share(keys: list) -> float:
    """Share of calls whose key already occurred earlier in the list."""
    seen: set = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return _share(repeats, len(keys))
