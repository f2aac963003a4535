"""Span tracing of cnls_gauge functions, installed from outside the package.

Each traced function is replaced, for the duration of one solve, by a
wrapper in every package module that holds a reference to it: the defining
module and each caller that imported the name. A wrapper records one span
per call (function, start, end, parent span, solve id). Spans stay in
memory and are written out once, by ``save``.

A function that a later refactor removes or renames is reported as absent;
tracing the rest goes on.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "cnls_gauge"

# <module>.<function>, as the per-layer metrics name them.
TRACED = (
    "cli.main",
    "config.load_config",
    "solver.evolve",
    "solver.step",
    "solver.continuity_residual",
    "grid.derivative",
    "grid.second_derivative",
    "grid.antiderivative_parts",
    "nonlinearity.eval_W_parts",
    "nonlinearity.eval_Wim_parts",
    "nonlinearity.eval_F_parts",
    "gauge.eval_transformed_parts",
    "gauge.compute_generator",
    "gauge.apply_gauge",
    "gauge.phase_relation_residual",
    "fields.to_hydro",
    "cli.write_snapshot",
    "cli.write_csv",
)

# Each call transforms its first argument forward and back once; the sum of
# their sizes is the computed FFT work (grid.fft_points).
FFT_FUNCTIONS = frozenset(
    {"grid.derivative", "grid.second_derivative", "grid.antiderivative_parts"}
)


@contextmanager
def swapped(replacements: dict):
    """Inside the block, every package module attribute that is a key of
    ``replacements`` (a function) holds the matching value instead: the
    defining module's name and each caller's imported name alike."""
    by_id = {id(fn): new for fn, new in replacements.items()}
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
        ):
            continue
        for attr, value in list(vars(module).items()):
            new = by_id.get(id(value))
            if new is not None:
                patched.append((module, attr, value))
                setattr(module, attr, new)
    try:
        yield
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []
        for name in TRACED:
            module_name, _, attr = name.rpartition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                self.originals[name] = fn
            else:
                self.absent.append(name)
        self._spans: list = []  # (fn index, start, end, parent, solve, points)
        self._stack: list[int] = []
        self._solve = -1

    def _wrap(self, index: int, fn, count_points: bool):
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            points = np.size(args[0]) if count_points and args else 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (index, start, end, parent, self._solve, points)

        return traced

    @contextmanager
    def active(self, solve_id: int):
        """Trace every call made inside the block as part of one solve."""
        replacements = {
            fn: self._wrap(TRACED.index(name), fn, name in FFT_FUNCTIONS)
            for name, fn in self.originals.items()
        }
        self._solve = solve_id
        try:
            with swapped(replacements):
                yield
        finally:
            self._stack.clear()

    def per_solve(self) -> dict[str, dict[str, list[float]]]:
        """Per traced function: calls and self time of each solve, plus the
        FFT points under "grid.fft_points". Self time is the span's duration
        minus the durations of its child spans."""
        rows = np.array(self._spans, dtype=float).reshape(-1, 6)
        solves = sorted({int(s) for s in rows[:, 4]})
        out: dict[str, dict[str, list[float]]] = {
            name: {"calls": [], "self_s": []} for name in TRACED
        }
        out["grid.fft_points"] = {"count": []}
        if not solves:
            return out
        fn = rows[:, 0].astype(int)
        dur = rows[:, 2] - rows[:, 1]
        parent = rows[:, 3].astype(int)
        child = np.zeros(len(rows))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        solve = rows[:, 4].astype(int)
        for s in solves:
            in_solve = solve == s
            calls = np.bincount(fn[in_solve], minlength=len(TRACED))
            busy = np.bincount(fn[in_solve], weights=self_time[in_solve],
                               minlength=len(TRACED))
            for i, name in enumerate(TRACED):
                out[name]["calls"].append(float(calls[i]))
                out[name]["self_s"].append(float(busy[i]))
            out["grid.fft_points"]["count"].append(float(rows[in_solve, 5].sum()))
        return out

    def save(self, path: Path) -> None:
        rows = np.array(self._spans, dtype=float).reshape(-1, 6)
        np.savez_compressed(
            path,
            names=np.array(TRACED),
            fn=rows[:, 0].astype(np.int16),
            start=rows[:, 1],
            end=rows[:, 2],
            parent=rows[:, 3].astype(np.int64),
            solve=rows[:, 4].astype(np.int32),
            points=rows[:, 5].astype(np.int64),
        )
