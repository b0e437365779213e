"""Span recorder and function patching for the traced benchmark pass.

The program under test has no spans of its own, so the traced pass wraps the
public functions of each ``nonmatching`` module from the outside.  Each
wrapper opens a span named after the layer metric, counts the call, and adds
counters derived from the call's arguments and result.  The wrapper replaces
the function in every ``nonmatching`` module that holds a binding to it (for
example ``reduced_betti`` lives in ``homology`` and is imported into
``sweeps``, ``cli``, ``morse`` and the package itself), and every binding is
put back when the traced pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_time: float = 0.0
    children: int = 0


class Recorder:
    """Spans and counters kept in memory for one pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, self.clock(), parent=parent)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._stack.pop()
            if parent is not None:
                up = self.spans[parent]
                up.child_time += rec.end - rec.start
                up.children += 1

    def self_times(self) -> dict[str, float]:
        """Span time minus the time covered by direct child spans, per name.

        Spans nest strictly (one thread, one stack), so the direct children
        of a span cover disjoint parts of its interval.
        """
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - s.child_time
        return out

    def covered_time(self) -> float:
        """Total time inside any span (the sum of all self times)."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)


# ---------------------------------------------------------------------------
# Probes: which functions are wrapped, and what each one counts
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _field_tag(args, kwargs) -> str:
    fld = _arg(args, kwargs, 1, "field")
    kind = "GF2" if fld is None else fld.kind
    return {"GF2": "gf2", "GFP": "gfp", "RATIONAL": "q"}[kind]


def _count_entries(rec, name, args, kwargs, result, span):
    rec.count(name + ".entries", 1 << len(args[0]))


def _count_faces_out(rec, name, args, kwargs, result, span):
    rec.count(name + ".faces_out", result.face_count)


def _count_link(rec, name, args, kwargs, result, span):
    cx = args[0]
    if result is not cx:  # the link of the empty face is returned unscanned
        rec.count(name + ".faces_scanned", cx.face_count)
        rec.count(name + ".faces_kept", result.face_count)


def _count_betti(rec, name, args, kwargs, result, span):
    cx = args[0]
    rec.count(name + ".faces_in", cx.face_count)
    # bd_d has one column per d-face with d+1 entries; dimensions below
    # min_dim are not ranked, and neither is dimension -1 (no rows)
    lo = max(_arg(args, kwargs, 3, "min_dim") or 0, 0)
    rec.count(name + ".boundary_nnz",
              sum((d + 1) * f for d, f in cx.face_counts().items() if d >= lo))


def _count_vacuous(rec, name, args, kwargs, result, span):
    if span.children == 0:  # answered without ranking anything
        rec.count(name + ".vacuous")


def _count_pairs(rec, name, args, kwargs, result, span):
    rec.count(name + ".pairs", len(args[1]))


def _count_family(rec, name, args, kwargs, result, span):
    rec.count(name + ".family_size", len(result.family))


def _count_found(rec, name, args, kwargs, result, span):
    if result is not None:
        rec.count(name + ".found")


def _count_hit(rec, name, args, kwargs, result, span):
    if result is not None:
        rec.count(name + ".hits")


def _count_bytes(rec, name, args, kwargs, result, span):
    cache, key = args[0], args[1]
    rec.count(name + ".bytes", os.path.getsize(cache._path(key)))


@dataclass(frozen=True)
class Probe:
    module: str  # module under nonmatching that defines the function
    attr: str  # function name, or Class.method
    metric: str  # span name, before any qualifier
    qualify: Callable | None = None  # (args, kwargs) -> qualifier
    count: Callable | None = None  # (rec, name, args, kwargs, result, span)


_RUNNER = lambda args, kwargs: args[0].runner  # noqa: E731
_MORSE = ("join_matching", "projection_matching", "cluster_union", "morse_inequality_details")
_BUILDERS = ("build_pm_matching", "build_fc_matching", "build_bfc_matching",
             "build_link_matching_complete", "build_link_matching_bipartite")
_RAINBOW = ("verify_hypotheses", "search_tightness", "rainbow_brute_force")

PROBES: tuple[Probe, ...] = (
    Probe("graphs", "subset_matching_numbers", "graphs.subset_matching_numbers",
          count=_count_entries),
    Probe("graphs", "gallai_edmonds", "graphs.gallai_edmonds"),
    Probe("graphs", "is_y_factor_critical", "graphs.is_y_factor_critical"),
    Probe("complexes", "build_nm_complex", "complexes.build_nm_complex",
          count=_count_faces_out),
    Probe("complexes", "link", "complexes.link", count=_count_link),
    Probe("complexes", "enumerate_family", "complexes.enumerate_family"),
    Probe("homology", "reduced_betti", "homology.reduced_betti", _field_tag, _count_betti),
    Probe("homology", "vanishing_from", "homology.vanishing_from", count=_count_vacuous),
    Probe("homology", "check_near_leray", "homology.check_near_leray"),
    Probe("morse", "check_matching", "morse.check_matching", count=_count_pairs),
    Probe("morse", "is_acyclic", "morse.is_acyclic"),
    *(Probe("morse", f, f"morse.{f}") for f in _MORSE),
    *(Probe("constructions", f, f"constructions.{f}", count=_count_family) for f in _BUILDERS),
    *(Probe("rainbow", f, f"rainbow.{f}") for f in _RAINBOW),
    Probe("rainbow", "find_rainbow_matching", "rainbow.find_rainbow_matching",
          count=_count_found),
    Probe("sweeps", "run_case", "sweeps.run_case", _RUNNER),
    Probe("sweeps", "expand_suite", "sweeps.expand_suite"),
    Probe("cache", "ResultCache.get", "cache.get", count=_count_hit),
    Probe("cache", "ResultCache.put", "cache.put", count=_count_bytes),
    Probe("cli", "main", "cli.main"),
)

RUNNERS = ("figure_reproduction", "vanishing", "vanishing_bipartite_chunk",
           "random_subgraph_vanishing", "near_leray", "concentration", "morse_family",
           "ge_chunk", "rainbow13_host", "rainbow14_chunk", "tightness", "join_law",
           "projection_law")

COUNT = "count"
COMPUTED = "count.computed"  # derived from input sizes, not observed in the program


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out: list[tuple[str, str]] = []

    def add(prefix, *stats):
        for stat in stats:
            unit = {"self_s": "s", "entries": COMPUTED, "boundary_nnz": COMPUTED,
                    "faces_scanned": COMPUTED, "bytes": "B"}.get(stat, COUNT)
            if stat.endswith("_ratio"):
                unit = "ratio"
            out.append((f"{prefix}.{stat}", unit))

    add("graphs.subset_matching_numbers", "calls", "self_s", "entries")
    add("graphs.gallai_edmonds", "calls", "self_s")
    add("graphs.is_y_factor_critical", "calls", "self_s")
    add("complexes.build_nm_complex", "calls", "self_s", "faces_out")
    add("complexes.link", "calls", "self_s", "faces_scanned", "faces_kept", "keep_ratio")
    add("complexes.enumerate_family", "calls", "self_s")
    for tag in ("gf2", "gfp", "q"):
        add(f"homology.reduced_betti.{tag}", "calls", "self_s", "faces_in", "boundary_nnz")
    add("homology.vanishing_from", "calls", "self_s", "vacuous_ratio")
    add("homology.check_near_leray", "calls", "self_s")
    add("morse.check_matching", "calls", "self_s", "pairs")
    add("morse.is_acyclic", "calls", "self_s")
    for f in _MORSE:
        add(f"morse.{f}", "calls", "self_s")
    for f in _BUILDERS:
        add(f"constructions.{f}", "calls", "self_s", "family_size")
    for f in _RAINBOW:
        add(f"rainbow.{f}", "calls", "self_s")
    add("rainbow.find_rainbow_matching", "calls", "self_s", "found_ratio")
    for r in RUNNERS:
        add(f"sweeps.run_case.{r}", "calls", "self_s")
    add("sweeps.expand_suite", "self_s")
    add("cache.get", "calls", "hits", "hit_ratio", "self_s")
    add("cache.put", "calls", "bytes", "self_s")
    add("cache", "audits")
    add("cli.main", "calls", "self_s")
    out.append(("harness.self_s", "s"))
    out.append(("trace.wall_s", "s"))
    out.append(("trace.overhead_s", "s"))
    return out


_RATIOS = {  # ratio metric -> (numerator counter, denominator counter)
    "complexes.link.keep_ratio": ("complexes.link.faces_kept", "complexes.link.faces_scanned"),
    "homology.vanishing_from.vacuous_ratio": ("homology.vanishing_from.vacuous",
                                              "homology.vanishing_from.calls"),
    "rainbow.find_rainbow_matching.found_ratio": ("rainbow.find_rainbow_matching.found",
                                                  "rainbow.find_rainbow_matching.calls"),
    "cache.get.hit_ratio": ("cache.get.hits", "cache.get.calls"),
}


def layer_values(rec: Recorder, wall_s: float, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values of one traced pass; a layer never called reads 0."""
    self_s = rec.self_times()
    values: dict[str, float] = {}
    for name, _unit in per_layer_metrics():
        if name in _RATIOS:
            num, den = _RATIOS[name]
            d = rec.counters.get(den, 0)
            values[name] = rec.counters.get(num, 0) / d if d else 0.0
        elif name.endswith(".self_s") and name != "harness.self_s":
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = float(rec.counters.get(name, 0))
    values.update(extra)
    values["harness.self_s"] = wall_s - rec.covered_time()
    values["trace.wall_s"] = wall_s
    return values


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------


def _wrap(rec: Recorder, probe: Probe, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        name = probe.metric
        if probe.qualify is not None:
            name = f"{name}.{probe.qualify(args, kwargs)}"
        rec.count(name + ".calls")
        with rec.span(name) as span:
            result = original(*args, **kwargs)
        if probe.count is not None:
            probe.count(rec, name, args, kwargs, result, span)
        return result

    return wrapper


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "nonmatching" or n.startswith("nonmatching."))]


@contextlib.contextmanager
def traced(rec: Recorder, probes=PROBES):
    """Wrap every probe's function in all modules that bind it; undo on exit."""
    modules = _package_modules()
    patched: list[tuple[object, str, object]] = []
    try:
        for probe in probes:
            owner = sys.modules[f"nonmatching.{probe.module}"]
            cls_name, _, meth = probe.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                patched.append((cls, meth, original))
                setattr(cls, meth, _wrap(rec, probe, original))
                continue
            original = getattr(owner, probe.attr)
            wrapper = _wrap(rec, probe, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, name, original))
                        setattr(mod, name, wrapper)
        yield rec
    finally:
        for target, name, original in reversed(patched):
            setattr(target, name, original)
