"""Span tracing for the benchmark, installed from outside the package.

Every public function of a measured layer is replaced, in each ``chancap``
module namespace that binds it, by a wrapper that records a span (name,
start, end, parent) and, where the returned value carries one, an exact
work count. ``infotheory``, ``verify`` and ``cli`` import ``channel_at``
and its siblings by name, so patching the defining module alone would miss
those calls.

Self time is a span's duration minus the time its child spans cover. It is
accumulated online; the spans themselves stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import re
import sys
import time
from array import array

_WROTE = re.compile(r"^wrote (\d+) rows to (.+)$", re.MULTILINE)


def _grid_counts(counts, out, printed):
    # capacity_grid returns (capacity, q, evaluations).
    counts["evals"] += out[2]
    # Computed from array sizes: one float64 prior read and one float64
    # mutual information written per evaluation. Temporaries and cache
    # misses are not counted.
    counts["bytes_computed"] += 16 * out[2]


def _ba_counts(counts, out, printed):
    # ba_binary returns (capacity, q, iterations, converged).
    counts["iters"] += out[2]
    counts["nonconverged"] += 0 if out[3] else 1


def _ternary_counts(counts, out, printed):
    # capacity_ternary returns (capacity, q, iterations).
    counts["iters"] += out[2]


def _fft_counts(counts, out, printed):
    counts["points"] += out.n
    # Computed from array sizes: one complex128 state read and one written.
    counts["bytes_computed"] += 32 * out.n


def _cli_counts(counts, out, printed):
    for rows, path in _WROTE.findall(printed):
        counts["rows_written"] += int(rows)
        table = path.strip()
        meta = os.path.splitext(table)[0] + ".meta.json"
        counts["bytes_written"] += os.path.getsize(table) + os.path.getsize(meta)


#: (module, function, count extractor). Names are "<module>.<function>";
#: counters are "<name>.<counter>".
LAYERS = (
    ("kernels", "capacity_grid", _grid_counts),
    ("kernels", "ba_binary", _ba_counts),
    ("kernels", "capacity_ternary", _ternary_counts),
    ("infotheory", "capacity_binary", None),
    ("infotheory", "capacity_grid", None),
    ("infotheory", "blahut_arimoto", None),
    ("infotheory", "two_level_capacity", None),
    ("twolevel", "channel_at", None),
    ("twolevel", "transition_probs", None),
    ("gaussian", "noise_variance", None),
    ("gaussian", "density_at", None),
    ("gaussian", "capacity_vs_precision_curve", None),
    ("oracle", "discretize", None),
    ("oracle", "propagate_spectral", _fft_counts),
    ("oracle", "grid_variance", None),
    ("cli", "main", _cli_counts),
)

#: Counters each layer reports besides calls and self time.
COUNTERS = {
    "kernels.capacity_grid": ("evals", "bytes_computed"),
    "kernels.ba_binary": ("iters", "nonconverged"),
    "kernels.capacity_ternary": ("iters",),
    "oracle.propagate_spectral": ("points", "bytes_computed"),
    "cli.main": ("rows_written", "bytes_written"),
}

#: Name of the root span the harness opens around each op.
OP = "op"


class Tracer:
    """Spans, self times and counts of one run, held in memory."""

    def __init__(self) -> None:
        self.names = [OP] + [f"{mod}.{fn}" for mod, fn, _ in LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts = {name: {c: 0 for c in COUNTERS.get(name, ())} for name in self.names}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        # Open spans: [name id, span index, start ns, ns covered by children].
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name_id: int) -> None:
        idx = len(self.span_name)
        parent = self._stack[-1][1] if self._stack else -1
        self.span_name.append(name_id)
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_parent.append(parent)
        start = time.perf_counter_ns()
        self.span_start[idx] = start
        self._stack.append([name_id, idx, start, 0])

    def end(self) -> None:
        stop = time.perf_counter_ns()
        name_id, idx, start, child_ns = self._stack.pop()
        dur = stop - start
        self.span_end[idx] = stop
        self.calls[name_id] += 1
        self.self_ns[name_id] += dur - child_ns
        if self._stack:
            self._stack[-1][3] += dur

    @contextlib.contextmanager
    def op(self):
        self.begin(0)
        try:
            yield
        finally:
            self.end()

    def _wrap(self, name: str, fn, count):
        name_id = self._ids[name]
        counts = self.counts[name]
        # Only the cli extractor reads what the call printed.
        capture = count is _cli_counts

        def call(*args, **kwargs):
            self.begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if capture:
                with contextlib.redirect_stdout(io.StringIO()) as buf:
                    out = call(*args, **kwargs)
                printed = buf.getvalue()
                sys.stdout.write(printed)
            else:
                out = call(*args, **kwargs)
                printed = ""
            if count is not None:
                count(counts, out, printed)
            return out

        return traced

    def install(self) -> None:
        """Patch every chancap namespace that binds a layer function."""
        import importlib

        for mod, fn, count in LAYERS:
            orig = getattr(importlib.import_module(f"chancap.{mod}"), fn)
            traced = self._wrap(f"{mod}.{fn}", orig, count)
            for modname, module in list(sys.modules.items()):
                if modname != "chancap" and not modname.startswith("chancap."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Calls and counters so far, keyed "<name>.<counter>"."""
        snap = {f"{name}.calls": self.calls[i] for i, name in enumerate(self.names)}
        for name, counters in self.counts.items():
            snap.update({f"{name}.{c}": v for c, v in counters.items()})
        return snap

    def write(self, path) -> None:
        """Write every span as columns of an .npz file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


def _unit(counter: str) -> str:
    if counter == "self_s":
        return "s/op"
    return "bytes" if counter.startswith("bytes") else "count"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in order."""
    units = {}
    for mod, fn, _ in LAYERS:
        name = f"{mod}.{fn}"
        for counter in ("calls", "self_s", *COUNTERS.get(name, ())):
            units[f"{name}.{counter}"] = _unit(counter)
    units.update(
        {
            "kernels.capacity_grid.ns_per_eval": "ns",
            "op.self_s": "s/op",
            "sweep.findings": "count",
            "floor.log_ns_per_double": "ns",
            "trace.op_s": "s/op",
            "trace.overhead_frac": "frac",
        }
    )
    return units
