"""Spans around mfekit's public functions, installed from outside the package.

A :class:`Tracer` replaces each traced function in every ``mfekit`` module
namespace that binds it (``from .chain import build_chain`` makes a second
binding), records one span per call -- name, start, end and the span open
when it started -- and restores the originals on exit.  Spans stay in memory
until :meth:`Tracer.write` saves them.  A few wrappers also read counts off
the call's arguments or result, so that rates are measured where the work is.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

# (module, function) pairs; the span name is "<module>.<function>".
TRACED = (
    ("dp", "value_iteration"),
    ("dp", "model_matrices"),
    ("dp", "extract_policy"),
    ("chain", "build_chain"),
    ("chain", "stationary_distribution"),
    ("chain", "ergodicity_check"),
    ("chain", "monte_carlo_stationary"),
    ("core", "interaction_value_detailed"),
    ("equilibrium", "residual"),
    ("equilibrium", "adaptive_vfi"),
    ("learning", "q_learning"),
    ("learning", "adaptive_q_learning"),
    ("experiments", "solve_by_name"),
    ("experiments", "comparative_statics_sweep"),
    ("cli", "main"),
    ("io", "write_artifact"),
    ("models", "build_model"),
)


def _m_key(m) -> tuple:
    return tuple(np.atleast_1d(np.asarray(m, dtype=float)).tolist())


class Tracer:
    """Context manager that traces the functions in TRACED while active."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []   # name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._tables_seen = weakref.WeakKeyDictionary()

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "mfekit" or name.startswith("mfekit."))]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"mfekit.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, func):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        traced.__wrapped__ = func
        return traced

    # -- counts read off arguments and results ----------------------------

    def _observe_dp_value_iteration(self, table, *args, **kwargs):
        self.counts["dp.value_iteration.sweeps"] += table.iterations
        self.counts["dp.value_iteration.unconverged"] += not table.converged

    def _observe_dp_model_matrices(self, result, model, m):
        seen = self._tables_seen.setdefault(model, set())
        key = _m_key(m)
        if key not in seen:
            seen.add(key)
            self.counts["dp.model_matrices.built"] += 1

    def _observe_core_interaction_value_detailed(self, result, *args, **kwargs):
        self.counts["core.interaction.clamped"] += bool(result[2])

    def _observe_chain_monte_carlo_stationary(self, result, model, g, m, K, *args, **kwargs):
        self.counts["chain.mc_samples"] += K

    def _observe_learning_q_learning(self, qtable, *args, **kwargs):
        self.counts["learning.env_steps"] += qtable.env_steps
        self.counts["learning.tuple_updates"] += qtable.total_updates

    def _observe_learning_adaptive_q_learning(self, sol, *args, **kwargs):
        self.counts["learning.outer_steps"] += sol.iterations

    def _observe_io_write_artifact(self, path, out_dir, name, content, manifest):
        self.counts["io.bytes_written"] += len(content.encode())

    # -- summaries --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] += (end - start) - inner
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def write(self, path) -> None:
        """One JSON object per span, in the order the calls started."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
