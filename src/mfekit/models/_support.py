"""Shared helpers for the model builders."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np


def round_half_up(v: float) -> int:
    """Nearest integer with ties rounding up (the tie-breaking rule used by
    every rounded quantity in this package)."""
    return int(math.floor(v + 0.5))


def snap_to_grid(v: float, step: float, n_points: int) -> int:
    """Index of the grid point {0, step, ..., (n-1)*step} nearest to v,
    ties up, clipped to the grid."""
    idx = round_half_up(v / step)
    return min(max(idx, 0), n_points - 1)


class DiscreteDistribution:
    """Finite distribution with O(log n) sampling via the cumulative table."""

    def __init__(self, values, probs):
        self.values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if np.any(probs < 0):
            raise ValueError("negative probability")
        self.probs = probs / probs.sum()
        self.cdf = np.cumsum(self.probs)
        self.cdf[-1] = 1.0

    @property
    def mean(self) -> float:
        return float(self.values @ self.probs)

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.values[int(np.searchsorted(self.cdf, rng.random(), side="right"))])


def params_from_dict(cls, data: dict):
    """Build a params record from a mapping, rejecting unknown keys."""
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise KeyError(
            f"unknown {cls.__name__} key(s): {sorted(unknown)}; known keys: {sorted(known)}"
        )
    clean = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    return cls(**clean)


def params_to_dict(p) -> dict:
    out = {}
    for f in fields(p):
        v = getattr(p, f.name)
        if isinstance(v, tuple):
            v = list(v)
        out[f.name] = v
    return out
