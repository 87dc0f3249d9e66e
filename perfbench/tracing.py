"""Spans and counters taken from outside distsym, around its public calls.

``Tracer.install`` replaces each traced public function, in every loaded
``distsym`` module that holds it, with a wrapper that records a span
(name, start, end, parent) in memory and feeds the layer's counters.
Spans are kept in a list and written out once, when the workload ends.

A span's self time is its duration minus the durations of its child
spans.  The ``<layer>.<call>_s`` metrics are self times, so they add up,
with the untraced gaps, to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute, span name).  Names double as metric prefixes.
# w_irreducible builds one row of the table, so it shares the table's span.
SPANS = (
    ("distsym.wchar", "character_table", "wchar.character_table"),
    ("distsym.wchar", "w_irreducible", "wchar.character_table"),
    ("distsym.wchar", "decompose", "wchar.decompose"),
    ("distsym.wchar", "inner_product", "wchar.inner_product"),
    ("distsym.wchar", "bipartitions", "wchar.bipartitions"),
    ("distsym.xi", "kappa", "xi.kappa_nu"),
    ("distsym.xi", "nu", "xi.kappa_nu"),
    ("distsym.xi", "even_paired_pairs", "xi.even_paired_pairs"),
    ("distsym.xi", "xi", "xi.route"),  # named xi.route_a/b/c by its route argument
    ("distsym.xi", "xi_all", "xi.xi_all"),
    ("distsym.cells", "even_strip_specials", "cells.even_strip_specials"),
    ("distsym.cells", "make_cell", "cells.make_cell"),
    ("distsym.cells", "fourier_constituents", "cells.fourier_constituents"),
    ("distsym.cells", "distinguished", "cells.distinguished"),
    ("distsym.oracle", "verify_claims", "oracle.verify_claims"),
    ("distsym.verify", "run_verification", "verify.run_verification"),
    ("distsym.cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for *_, name in SPANS if name != "xi.route")) + (
    "xi.route_a", "xi.route_b", "xi.route_c")

# Layers with more than one span name also get a summed <layer>.self_s.
SUMMED_LAYERS = ("wchar", "xi", "cells")


def _route_name(n, route="A"):
    return f"xi.route_{route.lower()}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.irreducibles: set = set()
        self.specials: dict[int, int] = {}
        self.originals: dict[str, object] = {}

    def _wrap(self, fn, name, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [_route_name(*args, **kwargs) if name == "xi.route" else name,
                    clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _counter(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions wherever distsym's modules bind them."""
        c = self.counts
        hooks = {
            "w_irreducible": lambda a, r: self.irreducibles.add(a[0]),
            "xi": lambda a, r: c.update({"xi.decomp_terms": len(r.decomposition)}),
            "even_strip_specials": lambda a, r: self.specials.__setitem__(a[0], len(r)),
            "fourier_constituents": lambda a, r: c.update({"cells.constituents": len(r)}),
            "verify_claims": lambda a, r: c.update({"oracle.claims": len(r)}),
            "run_verification": lambda a, r: c.update({
                "verify.checks": len(r.checks),
                "verify.noted": sum(ch.status == "discrepancy-documented" for ch in r.checks),
            }),
            "main": lambda a, r: c.update({"cli.calls": 1}),
        }
        wrappers = {}
        for mod, attr, name in SPANS:
            fn = getattr(sys.modules[mod], attr)
            self.originals[f"{mod}.{attr}"] = fn
            wrappers[f"{mod}.{attr}"] = self._wrap(fn, name, hooks.get(attr))
        # family() is only counted: fourier_constituents evaluates every member.
        family = sys.modules["distsym.cells"].family
        self.originals["distsym.cells.family"] = family
        wrappers["distsym.cells.family"] = self._counter(
            family, lambda a, r: c.update({"cells.family_members": len(r)}))
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "distsym"]
        for key, original in self.originals.items():
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrappers[key])

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far."""
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, _ in self.spans:
            self_s[name] += end - start
        roots = 0.0
        for name, start, end, parent in self.spans:
            if parent < 0:
                roots += end - start
            else:
                self_s[self.spans[parent][0]] -= end - start
        metrics = {f"{name}_s": v for name, v in self_s.items()}
        for layer in SUMMED_LAYERS:
            metrics[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                            if k.startswith(layer + "."))
        classes = self.originals["distsym.wchar.bipartitions"]
        c = self.counts
        metrics.update({
            "wchar.classes": sum(len(classes(n)) for n in {bp.n for bp in self.irreducibles}),
            "wchar.table_entries": sum(len(classes(bp.n)) for bp in self.irreducibles),
            "xi.decomp_terms": c["xi.decomp_terms"],
            "cells.specials": sum(self.specials.values()),
            "cells.family_members": c["cells.family_members"],
            "cells.constituents": c["cells.constituents"],
            "cells.fourier_yield": (c["cells.constituents"] / c["cells.family_members"]
                                    if c["cells.family_members"] else 0.0),
            "oracle.claims": c["oracle.claims"],
            "verify.checks": c["verify.checks"],
            "verify.noted": c["verify.noted"],
            "cli.calls": c["cli.calls"],
            "trace.span_coverage": roots / wall_s if wall_s > 0 else 0.0,
            "trace.spans": len(self.spans),
        })
        return metrics

    def write(self, path, workload: str, origin: float) -> None:
        """Write the spans, times relative to the workload's start."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(s - origin, 7), round(e - origin, 7), p]
                for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"workload": workload, "names": names,
                       "columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
