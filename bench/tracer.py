"""Call tracing for the benchmark's traced runs.

The program is not instrumented: the tracer replaces public functions
with timing wrappers in every gossipcover module namespace that refers
to them, and puts the originals back on exit. Each wrapper keeps a
span stack, so a function's self time is its inclusive time minus the
time its traced callees took.

Alongside the timings it counts exchange outcomes at the exchange
boundary: attempts, real trades, exchanges whose split ran but traded
nothing, and the highest piece count an exchange produced.
"""
from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs timed in traced runs; the metric name is
# "<module>.<function>". subdivide_triangle lives in quadrature but is
# reached only through geometry's integration, so it is named there.
TARGETS = (
    ("geometry", "interior_distance"),
    ("geometry", "symdiff_area"),
    ("geometry", "merge_pieces"),
    ("geometry", "region_split"),
    ("geometry", "centroid"),
    ("geometry", "integrate"),
    ("geometry", "diameter"),
    ("geometry", "subdivide_triangle"),
    ("partition", "adjacency_pairs"),
    ("partition", "pair_rebalanced"),
    ("partition", "centroids"),
    ("partition", "degeneracy_report"),
    ("gossip", "gossip_step"),
    ("gossip", "partial_gossip_step"),
    ("gossip", "fixed_point_residual"),
    ("switching", "run_evolution"),
    ("netsim", "simulate"),
    ("netsim", "random_destination"),
)
# switching.select is timed by the benchmark's scheduler subclasses
SPANS = tuple(f"{m}.{f}" for m, f in TARGETS) + ("switching.select",)
COUNTERS = ("gossip.exchange.attempted", "gossip.exchange.changed",
            "gossip.split_wasted")
_EXCHANGES = {"gossip.gossip_step", "gossip.partial_gossip_step"}
_SPLITS = {"geometry.region_split"}


class Tracer:
    """Span timings and exchange counters for one traced unit."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.counters = Counter()
        self.max_pieces = 0
        self._stack = []  # child seconds of each open span
        self._split_ran = False
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        if name in _EXCHANGES:
            self._split_ran = False
        elif name in _SPLITS:
            self._split_ran = True
        self._stack.append(0.0)
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            spent = perf_counter() - start
            children = self._stack.pop()
            if self._stack:
                self._stack[-1] += spent
            self.calls[name] += 1
            self.inclusive[name] += spent
            self.self_time[name] += spent - children
        if name in _EXCHANGES:
            self._count_exchange(out)
        return out

    def _count_exchange(self, out):
        c = self.counters
        c["gossip.exchange.attempted"] += 1
        if out.changed:
            c["gossip.exchange.changed"] += 1
        elif self._split_ran:
            c["gossip.split_wasted"] += 1
        self.max_pieces = max(self.max_pieces, *(
            len(r.pieces) for r in out.partition.regions))

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "gossipcover" or key.startswith("gossipcover.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"gossipcover.{mod_name}"], fn_name)
            wrapper = self._wrapper(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False
