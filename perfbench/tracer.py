"""Per-layer counts and times from wrappers around the public `logns` functions.

Each function in the `__all__` of the traced modules is replaced, by object
identity, in every `logns` module that bound it: `integrator` imports
`free_propagator` by name and `cli` imports the `run_*` experiments by name,
so patching only the defining module would miss those calls. `numpy.fft.fftn`
and `ifftn` are wrapped together as the layer `numpy.fft`.

A span's self time is its duration minus the durations of the spans it
directly contains. Stats are kept in memory and read between units.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

TRACED_MODULES = ("nonlinearity", "spectral", "geometry", "diagnostics", "integrator",
                  "data", "experiments", "io", "cli")
# public functions the package exports but their module's __all__ omits
_EXTRA_FUNCTIONS = {"integrator": ("final_state",)}

# layers whose work is counted in array points: the size of the first argument
_POINTS = {"numpy.fft", "nonlinearity.phase_flow"}
# io layers whose file size is added to the byte counters: (argument index, counter)
_FILE_ARGS = {
    "io.write_snapshot": (2, "bytes_written"),
    "io.write_timeseries": (1, "bytes_written"),
    "io.read_snapshot": (0, "bytes_read"),
    "io.load_config": (0, "bytes_read"),
}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    points: int = 0


class Tracer:
    def __init__(self):
        self._stack: list[float] = []        # child time accumulated per open span
        self._originals: list[tuple[object, str, Callable]] = []
        self.stats: dict[str, LayerStats] = {}
        self.io_bytes = {"bytes_written": 0, "bytes_read": 0}

    def reset(self) -> None:
        for name in self.stats:
            self.stats[name] = LayerStats()
        self.io_bytes = dict.fromkeys(self.io_bytes, 0)

    def snapshot(self) -> dict[str, float]:
        """Flat `<layer>.<q>` values accumulated since the last reset."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.total_s"] = st.total_s
            if name in _POINTS:
                out[f"{name}.points"] = st.points
        for key, value in self.io_bytes.items():
            out[f"io.{key}"] = value
        return out

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        self.stats.setdefault(name, LayerStats())
        count_points = name in _POINTS
        file_arg = _FILE_ARGS.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                st = self.stats[name]
                st.calls += 1
                st.total_s += elapsed
                st.self_s += elapsed - child
                if count_points:
                    st.points += int(np.size(args[0]))
                if file_arg is not None and len(args) > file_arg[0]:
                    path = Path(args[file_arg[0]])
                    if path.exists():
                        self.io_bytes[file_arg[1]] += path.stat().st_size

        return traced

    def _replace(self, original: Callable, wrapper: Callable, holders) -> None:
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._originals.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def install(self) -> None:
        logns_modules = [m for n, m in list(sys.modules.items())
                         if m is not None and (n == "logns" or n.startswith("logns."))]
        for short in TRACED_MODULES:
            module = sys.modules[f"logns.{short}"]
            for attr in (*module.__all__, *_EXTRA_FUNCTIONS.get(short, ())):
                fn = getattr(module, attr)
                if callable(fn) and not isinstance(fn, type):
                    self._replace(fn, self._wrap(f"{short}.{attr}", fn), logns_modules)
        for attr in ("fftn", "ifftn"):
            fn = getattr(np.fft, attr)
            self._replace(fn, self._wrap("numpy.fft", fn), [np.fft])

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._originals):
            setattr(holder, attr, original)
        self._originals.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
