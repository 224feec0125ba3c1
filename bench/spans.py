"""Timing wrappers around the engine's public functions, for traced runs.

``install()`` replaces each traced function in every ``gecc_kit`` module
namespace that holds it (modules bind names with ``from .ideal import
...``), plus ``Ideal.groebner_basis`` and ``BlowupResult.vanishing_part``
on their classes. A span stack turns wall time into self time: a span's
duration minus the time its traced descendants took. Counts are exact.
Nothing here runs unless a traced run asks for it.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) -> span name; several functions may share a span name.
SPANS = {
    ("ideal", "saturate_element"): "ideal.saturate_element",
    ("ideal", "eliminate"): "ideal.eliminate",
    ("ideal", "saturate"): "ideal.saturate",
    ("ideal", "radical_contains"): "ideal.radical_contains",
    ("ideal", "local_degree"): "ideal.local_degree",
    ("cycles", "intersection_multiplicity"): "cycles.intersection_multiplicity",
    ("cycles", "divisor_intersect"): "cycles.divisor_intersect",
    ("cycles", "proper_pushforward"): "cycles.pushforward",
    ("cycles", "pushforward_with_degree"): "cycles.pushforward",
    ("decompose", "minimal_primes"): "decompose.minimal_primes",
    ("decompose", "factor_list"): "decompose.factor_list",
    ("decompose", "rational_point"): "decompose.rational_point",
    ("conormal", "conormal_variety"): "conormal.conormal_variety",
    ("conormal", "gecc_assemble"): "conormal.gecc_assemble",
    ("hypersurface", "polar_curve"): "hypersurface.polar_curve",
    ("hypersurface", "nearby_gecc"): "hypersurface.nearby_gecc",
    ("hypersurface", "nearby_morse_at_origin"): "hypersurface.morse_at_origin",
    ("hypersurface", "shriek_morse_at_origin"): "hypersurface.morse_at_origin",
    ("hypersurface", "vanishing_morse_at_origin"): "hypersurface.morse_at_origin",
    ("vanishing", "microsupport_phi_bound"): "vanishing.microsupport_bound",
    ("vanishing", "isolating_check"): "vanishing.isolating_check",
    ("vanishing", "pi_delta"): "vanishing.pi_delta",
    ("vanishing", "lambda_cycles"): "vanishing.pi_delta",
    ("vanishing", "reconstruct_gecc"): "vanishing.reconstruct",
    ("vanishing", "blowup_exceptional"): "vanishing.blowup",
    ("vanishing", "vanishing_pipeline"): "vanishing.pipeline",
    ("cli", "load_descriptor"): "cli.load_descriptor",
}
# The pipeline's own projectivize call is the agreement check; inside
# reconstruction the same function is reconstruction work.
AGREEMENT_ONLY_UNDER = "vanishing.pipeline"


class Tracer:
    """Span stack plus totals of self time and counts for one process."""

    def __init__(self):
        self.stack: list = []  # [name, time spent in traced children]
        self.active: dict = {}
        self.self_s: dict = {}
        self.counts: dict = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def enter(self, name: str) -> list:
        frame = [name, 0.0]
        self.stack.append(frame)
        self.active[name] = self.active.get(name, 0) + 1
        self.count(name + ".calls")
        if name == "ideal.local_degree" and self.active.get("cycles.intersection_multiplicity"):
            self.count("cycles.multiplicity_samples")
        return frame

    def leave(self, frame: list, elapsed: float) -> None:
        self.stack.pop()
        name = frame[0]
        self.active[name] -= 1
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[1]
        if self.stack:
            self.stack[-1][1] += elapsed

    def span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(frame, time.perf_counter() - started)

        return wrapper

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}


def _modules() -> list:
    return [m for name, m in sys.modules.items() if name.startswith("gecc_kit") and m]


def install(tracer: Tracer):
    """Install every wrapper into the loaded engine modules.

    Returns a function that removes them again. Modules not yet imported
    are left alone, so a process that loaded only ``gecc_kit.ideal``
    stays free of sympy.
    """
    from gecc_kit import ideal

    undo: list = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    modules = _modules()
    for (mod_name, attr), span_name in SPANS.items():
        module = sys.modules.get(f"gecc_kit.{mod_name}")
        if module is None:
            continue
        original = getattr(module, attr)
        wrapped = tracer.span(span_name, original)
        for m in modules:
            if getattr(m, attr, None) is original:
                replace(m, attr, wrapped)

    vanishing = sys.modules.get("gecc_kit.vanishing")
    if vanishing is not None:
        original_project = vanishing.projectivize
        agreement_project = tracer.span("vanishing.agreement", original_project)

        @functools.wraps(original_project)
        def projectivize(*args, **kwargs):
            if tracer.stack and tracer.stack[-1][0] == AGREEMENT_ONLY_UNDER:
                return agreement_project(*args, **kwargs)
            return original_project(*args, **kwargs)

        for m in modules:
            if getattr(m, "projectivize", None) is original_project:
                replace(m, "projectivize", projectivize)
        replace(vanishing.BlowupResult, "vanishing_part",
                tracer.span("vanishing.agreement", vanishing.BlowupResult.vanishing_part))

    original_gb = ideal.Ideal.groebner_basis
    counters = ideal.ENGINE_COUNTERS

    @functools.wraps(original_gb)
    def groebner_basis(self, *args, **kwargs):
        runs, spairs = counters["groebner_runs"], counters["spairs"]
        frame = tracer.enter("ideal.groebner")
        started = time.perf_counter()
        try:
            return original_gb(self, *args, **kwargs)
        finally:
            tracer.leave(frame, time.perf_counter() - started)
            if counters["groebner_runs"] > runs:
                tracer.count("ideal.groebner_runs")
                tracer.count("ideal.spairs", counters["spairs"] - spairs)
                order = args[0] if args else kwargs.get("order", ideal.DEGREVLEX)
                stats = self.gb_stats(order)
                tracer.count("ideal.nonzero_reductions", stats.get("nonzero_reductions", 0))
                size = stats.get("basis_size", 0)
                if size > tracer.counts.get("ideal.peak_basis_size", 0):
                    tracer.counts["ideal.peak_basis_size"] = size
                if tracer.active.get("ideal.local_degree"):
                    tracer.count("ideal.local_degree_gb_runs")

    replace(ideal.Ideal, "groebner_basis", groebner_basis)

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall

