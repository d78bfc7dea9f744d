"""Single-agent dynamic programming at a fixed interaction value.

Plain value-function iteration on the Bellman operator, with greedy policy
extraction.  The interaction value m is data here, never a choice variable:
the equilibrium layer is responsible for moving it.

Nothing is kept between calls.  model_matrices enumerates the payoff matrix
and transition tensor afresh each time it is called; value_iteration fetches
them once and iterates on those arrays, and hands the final one-step
lookahead to extract_policy with its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ModelSpec, StationaryPolicy

_NEG_INF = -np.inf


def model_matrices(model: ModelSpec, m):
    """Dense (R, T, mask) arrays for vectorized backups, built on every call.

    R[x, a] is the payoff (-inf when infeasible), T[x, a, :] the transition
    row (zeros when infeasible), mask the feasibility indicator.
    """
    n, k = model.n_states, model.n_actions
    R = np.full((n, k), _NEG_INF)
    T = np.zeros((n, k, n))
    mask = model.action_space.mask(n)
    for x in range(n):
        for a in model.action_space.feasible_at(x):
            R[x, a] = model.payoff(x, a, m)
            T[x, a, :] = model.transition_row(x, a, m)
    return R, T, mask


@dataclass
class ValueTable:
    """Value function V(., m) together with the last backup's sup-norm change.

    value_iteration also stores the one-step lookahead at the final values,
    lookahead[x, a] = R[x, a] + beta * T[x, a] @ values, from which
    extract_policy reads the greedy policy.
    """

    values: np.ndarray
    m: float | np.ndarray
    sup_norm_residual: float = np.inf
    iterations: int = 0
    converged: bool = True
    lookahead: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


def _backup(R: np.ndarray, T: np.ndarray, beta: float, values: np.ndarray) -> np.ndarray:
    """Q[x, a] = payoff + beta * E[V(next)] with -inf on infeasible pairs."""
    return R + beta * (T @ values)


def _lookahead(model: ModelSpec, values: np.ndarray, m) -> np.ndarray:
    """The lookahead of values at m, on freshly built tables."""
    R, T, _ = model_matrices(model, m)
    return _backup(R, T, model.discount, values)


def bellman_backup(model: ModelSpec, V: ValueTable, m=None) -> ValueTable:
    """One Bellman backup: V'(x) = max_{a in feasible(x)} lookahead(x, a)."""
    m = V.m if m is None else m
    new_values = _lookahead(model, V.values, m).max(axis=1)
    residual = float(np.max(np.abs(new_values - V.values)))
    return ValueTable(new_values, m, sup_norm_residual=residual, iterations=V.iterations + 1)


def value_iteration(
    model: ModelSpec,
    m,
    tol: float = 1e-4,
    max_iters: int = 1000,
) -> ValueTable:
    """Iterate the Bellman operator from V = 0 until the sup-norm change <= tol.

    The contraction bound then gives ||V - V*||_inf <= tol * beta / (1 - beta).
    If max_iters is exhausted the best iterate is returned with converged
    False rather than raising; callers decide how to react.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    R, T, _ = model_matrices(model, m)
    beta = model.discount
    values = np.zeros(model.n_states)
    converged = False
    for iterations in range(1, max_iters + 1):
        new_values = _backup(R, T, beta, values).max(axis=1)
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
        if residual <= tol:
            converged = True
            break
    return ValueTable(
        values, m, sup_norm_residual=residual, iterations=iterations, converged=converged,
        lookahead=_backup(R, T, beta, values),
    )


def extract_policy(model: ModelSpec, V: ValueTable) -> StationaryPolicy:
    """Greedy policy from the lookahead value_iteration stored in V, ties
    broken by lowest index."""
    # np.argmax returns the first (= lowest-index) maximizer.
    return StationaryPolicy(V.lookahead.argmax(axis=1), V.m)
