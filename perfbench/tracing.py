"""Per-layer timing taken from outside the program.

``Tracer.layers()`` replaces chosen public functions of the ccreconfig
modules by timing wrappers for the length of a ``with`` block and puts
the originals back afterwards.  Every module attribute bound to the same
function object is replaced, so calls made through ``from .graph import
...`` copies inside the package are timed as well.  A nested or
recursive call of a layer that is already being timed counts once, at
its outermost call, so each figure is the inclusive time of that layer.
``wrapper_seconds()`` measures what one wrapper adds to a call; times
``Tracer.calls`` it gives the cost of tracing a pass.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import types
from collections import defaultdict

import ccreconfig
from ccreconfig import chordal, cli, cographs, generators, graph, oracle, paths, rules

MODULES = (ccreconfig, graph, rules, oracle, paths, cographs, chordal, generators, cli)

# metric -> (module, public function); all inclusive seconds
LAYERS = {
    "graph.components_s": (graph, "connected_components"),
    "graph.is_chordal_s": (graph, "is_chordal"),
    "graph.co_components_s": (graph, "co_components"),
    "paths.path_order_s": (paths, "path_order"),
    "paths.expand_s": (paths, "expand_moves"),
    "cographs.decompose_s": (cographs, "decompose_cograph"),
    "chordal.conflict_graph_s": (chordal, "build_conflict_graph"),
    "chordal.solve_s": (chordal, "solve_equal_size_cj"),
    "oracle.enumerate_s": (oracle, "enumerate_states"),
    "rules.verify_s": (rules, "verify_sequence"),
}

# metric -> states handed to the call, summed into Tracer.units
COUNTS = {
    "rules.verify_s": lambda args, kwargs: len(args[1]) if len(args) > 1 else len(kwargs["states"]),
}


def _cograph_metric(args, kwargs) -> str:
    variant = kwargs.get("variant", args[3] if len(args) > 3 else ccreconfig.Rule.CS)
    return "cographs.solve_cs1_s" if variant is ccreconfig.Rule.CS1 else "cographs.solve_cs_s"


class Tracer:
    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.units: dict[str, int] = defaultdict(int)
        self._open: dict[str, int] = defaultdict(int)
        self.calls = 0  # wrapper calls, for the cost of tracing

    def _wrap(self, metric, fn, count=None):
        def wrapper(*args, **kwargs):
            self.calls += 1
            name = metric(args, kwargs) if callable(metric) else metric
            if count is not None:
                self.units[name] += count(args, kwargs)
            if self._open[name]:
                return fn(*args, **kwargs)
            self._open[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self._open[name] -= 1

        return wrapper

    @contextlib.contextmanager
    def _patched(self, plan):
        """plan: list of (metric, function, count)."""
        undo = []
        try:
            for metric, fn, count in plan:
                wrapper = self._wrap(metric, fn, count)
                for mod in MODULES:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, fn))
            yield
        finally:
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)

    @contextlib.contextmanager
    def _graph_init(self, metric):
        init = graph.Graph.__init__
        graph.Graph.__init__ = self._wrap(metric, init)
        try:
            yield
        finally:
            graph.Graph.__init__ = init

    @contextlib.contextmanager
    def setup_layers(self):
        """Program time spent building instances: the generators and
        every Graph construction."""
        plan = [
            ("generators.instance_s", getattr(generators, name), None)
            for name in ("random_chordal_graph", "random_cotree_graph")
        ]
        with self._graph_init("generators.instance_s"), self._patched(plan):
            yield

    @contextlib.contextmanager
    def layers(self):
        plan = [
            (metric, getattr(mod, attr), COUNTS.get(metric))
            for metric, (mod, attr) in LAYERS.items()
        ]
        plan.append((_cograph_metric, cographs.solve_cograph_cs, None))
        proxy = types.SimpleNamespace(
            load=self._wrap("cli.json_load_s", json.load),
            dumps=self._wrap("cli.json_emit_s", json.dumps),
            JSONDecodeError=json.JSONDecodeError,
        )
        real_json = cli.json
        cli.json = proxy
        try:
            with self._graph_init("graph.build_s"), self._patched(plan):
                yield
        finally:
            cli.json = real_json


def wrapper_seconds() -> float:
    """Seconds a timing wrapper adds to one call: a wrapped no-op minus
    the bare no-op, the median of five timings of 100 000 calls."""
    reps = 100_000

    def noop(*args, **kwargs):
        return None

    wrapped = Tracer()._wrap("noop", noop)

    def timing(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(1, 2)
        return time.perf_counter() - t0

    return statistics.median(timing(wrapped) - timing(noop) for _ in range(5)) / reps
