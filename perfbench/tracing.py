"""Spans and exact counters recorded around the library's public functions.

The library is not edited: ``replace_everywhere`` swaps a function for a
wrapper in every ``latchain`` module that holds a reference to it, so calls
made through ``latchain.suites`` or ``latchain.cli`` imports are caught as
well and nest under their callers. Spans stay in memory; a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import factorial
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from latchain import cli, families, permstats, polynomial, posets, reports, suites, tn
from latchain.polynomial import ExactPoly
from latchain.posets import Poset
from latchain.tn import RMatrix

LIBRARY_MODULES = ("polynomial", "posets", "tn", "families", "permstats", "suites", "cli", "reports")


def replace_everywhere(original, replacement) -> List[Tuple[object, str]]:
    """Point every latchain module attribute bound to ``original`` at
    ``replacement``; returns the (module, name) pairs changed."""
    changed = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "latchain" or modname.startswith("latchain.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                changed.append((module, name))
    return changed


@contextmanager
def patched(module, name: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace module.name (and every alias of it) by make(original)."""
    original = getattr(module, name)
    changed = replace_everywhere(original, make(original))
    try:
        yield
    finally:
        for mod, attr in changed:
            setattr(mod, attr, original)


# -- counters --------------------------------------------------------------------


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return int(c).bit_length()


def _observe_polys(tracer: "Tracer", args, result) -> None:
    for a in args:
        if isinstance(a, ExactPoly) and a.coeffs:
            tracer.bump_max("polynomial.max_degree", len(a.coeffs) - 1)
            tracer.bump_max("polynomial.max_coeff_bits", max(map(_coeff_bits, a.coeffs)))


def _observe_posets(tracer: "Tracer", args, result) -> None:
    for a in args:
        if isinstance(a, Poset):
            tracer.bump_max("posets.max_elements", a.n)


def _observe_built(tracer: "Tracer", args, result) -> None:
    if isinstance(result, Poset):
        tracer.add("families.elements_built", result.n)
        tracer.bump_max("posets.max_elements", result.n)


def _observe_resolve(tracer: "Tracer", args, result) -> None:
    if args and isinstance(args[0], RMatrix):
        tracer.bump_max("tn.resolve.max_order", args[0].order)


def _observe_perms(tracer: "Tracer", args, result) -> None:
    tracer.add("permstats.perms_enumerated", factorial(args[0]))


# (module, attribute, span name, counter hook); Poset members are patched
# on the class, every other target in each module that imports it
FUNCTION_TARGETS = (
    (polynomial, "interlaces", "polynomial.interlaces", _observe_polys),
    (polynomial, "is_real_rooted", "polynomial.is_real_rooted", _observe_polys),
    (polynomial, "roots_in_interval", "polynomial.roots_in_interval", _observe_polys),
    (polynomial, "isolate_real_roots", "polynomial.isolate_real_roots", _observe_polys),
    (posets, "is_isomorphic", "posets.is_isomorphic", _observe_posets),
    (tn, "is_geometric", "tn.is_geometric", _observe_posets),
    (tn, "is_quasi_rank_uniform", "tn.is_quasi_rank_uniform", _observe_posets),
    (tn, "rank_matrix", "tn.rank_matrix", _observe_posets),
    (tn, "resolve", "tn.resolve", _observe_resolve),
    (tn, "chain_polys_from_rmatrix", "tn.chain_polys_from_rmatrix", None),
    (families, "boolean_lattice", "families.boolean_lattice", _observe_built),
    (families, "truncated_boolean", "families.truncated_boolean", _observe_built),
    (families, "partition_lattice", "families.partition_lattice", _observe_built),
    (families, "subspace_lattice", "families.subspace_lattice", _observe_built),
    (families, "affine_lattice", "families.affine_lattice", _observe_built),
    (families, "linear_space_lattice", "families.linear_space_lattice", _observe_built),
    (families, "single_element_extension", "families.single_element_extension", _observe_built),
    (families, "dowling_rows", "families.dowling_rows", None),
    (permstats, "eulerian", "permstats.eulerian", _observe_perms),
    (permstats, "q_eulerian", "permstats.q_eulerian", _observe_perms),
    (suites, "counterexample_search", "suites.counterexample_search", None),
    (suites, "suite_run", None, None),  # span named suites.<suite name>
    (cli, "main", "cli.main", None),
    (reports, "write_jsonl", "reports.write_jsonl", None),
)
METHOD_TARGETS = (
    ("chain_polynomial", "posets.chain_polynomial"),
    ("rank_selected", "posets.rank_selected"),
)
PROPERTY_TARGETS = (("is_lattice", "posets.is_lattice"),)  # builds the join/meet tables

SPAN_NAMES = tuple(t[2] for t in FUNCTION_TARGETS if t[2]) + tuple(
    t[1] for t in METHOD_TARGETS + PROPERTY_TARGETS
)
COUNTERS = (
    ("polynomial.max_coeff_bits", "bits"),
    ("polynomial.max_degree", "count"),
    ("posets.max_elements", "count"),
    ("families.elements_built", "count"),
    ("tn.resolve.max_order", "count"),
    ("permstats.perms_enumerated", "count"),
)


class Tracer:
    """Records (name, start_ns, end_ns, parent) spans and per-pass counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []

    def add(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def bump_max(self, key: str, value: int) -> None:
        if value > self.counters.get(key, -1):
            self.counters[key] = value

    def wrap(self, fn: Callable, name: Optional[str], observe=None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name or f"suites.{args[0]}", 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target for the duration of the block."""
        changed = []
        saved = {}
        try:
            for module, attr, name, observe in FUNCTION_TARGETS:
                original = getattr(module, attr)
                changed.append((original, replace_everywhere(original, self.wrap(original, name, observe))))
            for attr, name in METHOD_TARGETS:
                saved[attr] = Poset.__dict__[attr]
                setattr(Poset, attr, self.wrap(saved[attr], name, _observe_posets))
            for attr, name in PROPERTY_TARGETS:
                saved[attr] = Poset.__dict__[attr]
                getter = self.wrap(saved[attr].fget, name, _observe_posets)
                setattr(Poset, attr, property(getter))
            yield
        finally:
            for attr, value in saved.items():
                setattr(Poset, attr, value)
            for original, pairs in changed:
                for module, attr in pairs:
                    setattr(module, attr, original)

    def summarize(self, first: int = 0) -> Dict[str, Dict[str, float]]:
        """calls, self_s and wall_s per span name, over spans[first:]."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans[first:]:
            if parent >= first:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i in range(first, len(spans)):
            name, start, end, _ = spans[i]
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start - child_ns[i]) / 1e9
            row["wall_s"] += (end - start) / 1e9
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]

