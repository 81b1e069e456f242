"""Span recorder for the traced run.

`Tracer.install` replaces public functions in the module namespaces where
the CLI and the library look them up (for example `lisrc.cli.build_piles`
and `lisrc.bipartite.build_graph`) with wrappers that record one span per
call; `uninstall` puts the originals back, so untraced requests run the
unmodified code.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  One name may be patched in several
# namespaces: it is the same function, looked up from different callers.
TARGETS = (
    ("cli", "run", "cli.run"),
    ("cli", "parse_instance", "cli.parse_instance"),
    ("cli", "normalize", "seqcore.normalize"),
    ("cli", "require_feasible", "seqcore.require_feasible"),
    ("cli", "build_piles", "piles.build_piles"),
    ("bipartite", "build_piles", "piles.build_piles"),
    ("cli", "minimal_set", "reconfig.minimal_set"),
    ("bipartite", "build_graph", "bipartite.build_graph"),
    ("bipartite", "two_coloring", "bipartite.two_coloring"),
    ("bipartite", "mixed_piles", "bipartite.mixed_piles"),
    ("bipartite", "find_forbidden_pair", "bipartite.find_forbidden_pair"),
    ("bipartite", "shortest_sequence", "bipartite.shortest_sequence"),
    ("bipartite", "is_feasible", "seqcore.is_feasible"),
    ("reconfig", "is_feasible", "seqcore.is_feasible"),
    ("oracle", "enumerate_feasible", "oracle.enumerate_feasible"),
    ("oracle", "build_reconfig_graph", "oracle.build_reconfig_graph"),
    ("oracle", "oracle_shortest", "oracle.oracle_shortest"),
)

# Input-shape counts read off a wrapped call's arguments or result:
# span name -> (count name, extractor, how repeated calls combine).
SHAPES = {
    "seqcore.normalize": (("input.n", lambda a, r: r.n, max),),
    "piles.build_piles": (
        ("piles.k", lambda a, r: r.k, max),
        ("piles.max_height", lambda a, r: max(map(len, r.piles[1:]), default=0), max),
    ),
    "reconfig.minimal_set": (("reconfig.descent_moves", lambda a, r: len(r[1]), sum),),
    "reconfig.ReconfSequence.sets": (
        ("reconfig.witness_len", lambda a, r: len(a[0]), sum),
    ),
    "bipartite.build_graph": (
        ("bipartite.graph_edges", lambda a, r: sum(map(len, r.adjacency)) // 2, max),
    ),
    "bipartite.mixed_piles": (("bipartite.mixed", lambda a, r: len(r), max),),
    "oracle.enumerate_feasible": (("oracle.sets", lambda a, r: len(r), sum),),
    "oracle.build_reconfig_graph": (
        ("oracle.swap_edges", lambda a, r: len(r.edges), sum),
    ),
}


class Tracer:
    """Collects spans (name, start, end, parent, request) of traced requests."""

    def __init__(self, lisrc_modules: dict):
        self.modules = lisrc_modules
        self.spans: list = []
        self.stack: list[int] = []
        self.shape_values: list = []  # (request, count name, value, combine)
        self.request = -1
        self._saved: list = []

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent, perf_counter()

    def _close(self, name, idx, parent, start) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, start, end, parent, self.request)

    def _shapes(self, name, args, result) -> None:
        for count, extract, combine in SHAPES.get(name, ()):
            self.shape_values.append((self.request, count, extract(args, result), combine))

    def wrap(self, name, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx, parent, start = self._open()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(name, idx, parent, start)
            self._shapes(name, args, result)
            return result

        return traced

    def wrap_generator(self, name, func):
        """A span from the first item pulled to the generator's exhaustion."""

        @functools.wraps(func)
        def traced(*args):
            idx, parent, start = self._open()
            try:
                yield from func(*args)
            finally:
                self._close(name, idx, parent, start)
            self._shapes(name, args, None)

        return traced

    def install(self) -> None:
        for mod, attr, name in TARGETS:
            owner = self.modules[mod]
            func = getattr(owner, attr)
            self._saved.append((owner, attr, func))
            setattr(owner, attr, self.wrap(name, func))
        cls = self.modules["reconfig"].ReconfSequence
        self._saved.append((cls, "sets", cls.sets))
        cls.sets = self.wrap_generator("reconfig.ReconfSequence.sets", cls.sets)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, func = self._saved.pop()
            setattr(owner, attr, func)

    def per_request(self):
        """Per request: {span name: (total ms, self ms, calls)} and shapes."""
        child_time = defaultdict(float)
        for name, start, end, parent, req in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for idx, (name, start, end, parent, req) in enumerate(self.spans):
            entry = layers[req][name]
            entry[0] += (end - start) * 1e3
            entry[1] += (end - start - child_time[idx]) * 1e3
            entry[2] += 1
        shapes: dict = defaultdict(dict)
        for req, count, value, combine in self.shape_values:
            prev = shapes[req].get(count)
            shapes[req][count] = value if prev is None else combine((prev, value))
        return layers, shapes

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "request"], "spans": self.spans},
                handle,
            )
