"""Span tracing around the library's layer entry points, from outside the
library.

The CLI reaches every layer through module attributes (`matrices.f(...)`,
`oracle.f(...)`), and the library's own modules look up their functions in
their module namespace, so replacing those attributes with timing wrappers
catches every call without touching the source.  Spans are kept in flat
arrays while the run lasts and written out when it ends.
"""
from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT = "cli"

# layer -> (module, functions).  The functions are the public entry points
# of each layer; helpers they call are part of their self time.
LAYERS = {
    "matrices.build": ("matrices", ("primitive_gossip_matrix",
                                    "expected_failure_matrix")),
    "oracle.eig": ("oracle", ("full_spectrum", "spectral_gap_numeric")),
    "oracle.match": ("oracle", ("spectrum_match_distance",)),
    "oracle.enum": ("oracle", ("enumerate_failure_expectation",)),
    "oracle.det": ("oracle", ("determinant_shifted",)),
    "pentadiag.closed_form": ("pentadiag", ("weighted_gossip_params",
                                            "link_failure_params",
                                            "analytic_eigenvalues",
                                            "second_largest_modulus",
                                            "penta_matrix")),
    "pentadiag.charpoly": ("pentadiag", ("charpoly_bb", "charpoly_bb_bd",
                                         "charpoly_bd_bd")),
    "rates.closed_form": ("rates", ("rate_weighted", "rate_link_failure",
                                    "optimal_weight", "relative_error")),
    "sim.mc": ("sim", ("monte_carlo_rate", "run_periodic_gossip")),
    "cli.write": ("cli", ("write_rows",)),
}


class Tracer:
    """Records spans (name, start, end, parent, command) and per-layer self
    time; a span's self time is its duration minus its children's."""

    def __init__(self, package) -> None:
        self._package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of: list[str] = []
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.command = array("q")
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.eig_max_residual = 0.0
        self.trials_requested = 0
        self.trials_kept = 0
        self._stack: list[list] = []    # [span id, child time]
        self._command_id = -1

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(layer)
        return self._name_ids[name]

    def _open(self, name_id: int) -> None:
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.command.append(self._command_id)
        self.end.append(0.0)
        self._stack.append([span, 0.0])
        self.start.append(perf_counter())

    def _close(self) -> None:
        t1 = perf_counter()
        span, child = self._stack.pop()
        self.end[span] = t1
        duration = t1 - self.start[span]
        name_id = self.name[span]
        self.self_time[self._layer_of[name_id]] += duration - child
        self.calls[self.names[name_id]] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def command_span(self, command_id: int):
        """Root span of one CLI command; its self time is `cli` time."""
        self._command_id = command_id
        self._open(self._name_id(ROOT, ROOT))
        try:
            yield
        finally:
            self._close()

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "oracle.full_spectrum":
            self.eig_max_residual = max(self.eig_max_residual, result.residual)
        elif name == "sim.monte_carlo_rate":
            self.trials_requested += args[1]
            self.trials_kept += result.trials
        elif name == "sim.run_periodic_gossip":
            self.trials_requested += 1
            self.trials_kept += result.empirical_rate is not None

    def _wrap(self, fn, name: str, layer: str):
        name_id = self._name_id(name, layer)

        def traced(*args, **kwargs):
            self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            self._observe(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace the layer entry points with traced wrappers; restore the
        originals on exit."""
        saved = []
        for layer, (module_name, functions) in LAYERS.items():
            module = getattr(self._package, module_name)
            for fn_name in functions:
                fn = getattr(module, fn_name)
                saved.append((module, fn_name, fn))
                setattr(module, fn_name,
                        self._wrap(fn, f"{module_name}.{fn_name}", layer))
        try:
            yield self
        finally:
            for module, fn_name, fn in saved:
                setattr(module, fn_name, fn)

    def write(self, path) -> None:
        """All spans as gzipped CSV: span, name, start_s, end_s, parent,
        command."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,command\n")
            for span, name_id in enumerate(self.name):
                fh.write(f"{span},{self.names[name_id]},{self.start[span]:.9f},"
                         f"{self.end[span]:.9f},{self.parent[span]},"
                         f"{self.command[span]}\n")
