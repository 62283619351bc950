"""Outside-in span tracer for the traced benchmark run.

The tracer replaces each traced function at every module binding inside the
``leavitt_lab`` package (``from .graph import classify_graph`` makes
``spi.classify_graph`` a second binding of the same function) with a wrapper
that records a span ``(name, start, end, parent, call id)`` in memory and
adds counts derived from the arguments and the return value.  Nothing in the
package is edited; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "leavitt_lab"

# Traced functions, "<module>.<function>", with the statistics reported for each.
LAYERS = {
    "cli.main": ("self_ms",),
    "graph.graph_from_json": ("self_ms",),
    "graph.classify_graph": ("calls", "self_ms"),
    "graph.find_cycles": ("calls", "self_ms", "cycles"),
    "graph.hereditary_saturated_closure": ("calls", "self_ms"),
    "transforms.desingularize": ("self_ms",),
    "transforms.remove_sources": ("self_ms",),
    "transforms.complete_and_embed": ("self_ms",),
    "lpa.element_from_json": ("self_ms",),
    "lpa.element_to_json_obj": ("self_ms",),
    "lpa.normalize_terms": ("calls", "self_ms", "terms_in", "terms_out", "kept_ratio"),
    "lpa.multiply": ("calls", "self_ms", "pairs", "terms_out"),
    "matricial.stage_expansion": ("calls", "self_ms", "terms_out"),
    "matricial.degree_zero_witness": ("self_ms",),
    "matricial.acyclic_decompose": ("calls", "self_ms", "entries"),
    "spi.spi_witness": ("self_ms",),
    "spi.annihilating_closed_path": ("calls", "self_ms"),
    "spi.incomparable_closed_path": ("calls", "self_ms"),
    "spi.closed_paths_at": ("calls", "self_ms", "paths"),
    "spi.least_cycle_at": ("calls", "self_ms"),
    "spi.path_to_cycle_base": ("self_ms",),
    "pnorm.spatial_rep_acyclic": ("self_ms",),
    "pnorm.norm_estimate": ("calls", "self_ms"),
    "pnorm.power_iteration_lower_bound": ("calls", "self_ms"),
}

# Counts derived from a call: {stat: f(return value, *args, **kwargs)}.
# multiply's pairs are the monomial products it tries, terms_out the ones kept.
COUNTS = {
    "graph.find_cycles": {"cycles": lambda r, *a, **k: len(r)},
    "lpa.normalize_terms": {
        "terms_in": lambda r, g, raw, *a, **k: len(raw),
        "terms_out": lambda r, *a, **k: len(r),
    },
    "lpa.multiply": {
        "pairs": lambda r, x, y: len(x) * len(y),
        "terms_out": lambda r, *a, **k: len(r),
    },
    "matricial.stage_expansion": {"terms_out": lambda r, *a, **k: len(r)},
    "matricial.acyclic_decompose": {
        "entries": lambda r, *a, **k: sum(len(m) ** 2 for m in r.blocks.values())
    },
    "spi.closed_paths_at": {"paths": lambda r, *a, **k: len(r)},
}


def package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


class Tracer:
    def __init__(self):
        self.originals = {}
        for layer in LAYERS:
            mod, fn = layer.split(".")
            self.originals[layer] = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
        # (module, attribute, span name) patched by the last install; kept after uninstall
        self.bindings: list[tuple[object, str, str]] = []
        self.wrappers: dict[str, object] = {}
        self.spans: list = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._call_id = -1

    # -- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        extract = COUNTS.get(name, {})

        def traced(*args, **kwargs):
            if not stack:
                self._call_id += 1
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._call_id)
                counts[name]["calls"] += 1
            for stat, f in extract.items():
                counts[name][stat] += f(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        by_id = {id(fn): name for name, fn in self.originals.items()}
        self.wrappers = {name: self._wrap(name, fn) for name, fn in self.originals.items()}
        self.bindings = []
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None and value is self.originals[name]:
                    self.bindings.append((module, attr, name))
                    setattr(module, attr, self.wrappers[name])
        left = self.stale_bindings(self.originals)
        if left:
            self.uninstall()
            raise RuntimeError(f"bindings left unpatched: {left}")

    def uninstall(self) -> None:
        for module, attr, name in self.bindings:
            setattr(module, attr, self.originals[name])
        left = self.stale_bindings(self.wrappers)
        if left:
            raise RuntimeError(f"wrappers left behind: {left}")

    def stale_bindings(self, functions: dict) -> list[str]:
        """Module attributes of the package still bound to one of ``functions``."""
        ids = {id(f) for f in functions.values()}
        return [
            f"{module.__name__}.{attr}"
            for module in package_modules()
            for attr, value in vars(module).items()
            if id(value) in ids
        ]

    def binding_map(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = defaultdict(list)
        for module, _, name in self.bindings:
            out[name].append(module.__name__.rpartition(".")[2] or module.__name__)
        return dict(out)

    # -- results --------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._call_id = -1

    def self_ms(self) -> dict[str, float]:
        """Per span name: total duration minus the duration of its child spans."""
        total: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] += dur
            if parent >= 0:
                total[self.spans[parent][0]] -= dur
        return {name: v * 1e3 for name, v in total.items()}

    def snapshot_counts(self) -> dict[str, dict[str, int]]:
        return {name: dict(stats) for name, stats in self.counts.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, call_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, call_id]) + "\n")
