"""Single-agent dynamic programming at a fixed interaction value.

Howard policy iteration (the exact best response the equilibrium solvers
use) and plain value-function iteration on the Bellman operator (kept as a
reference), with greedy policy extraction.  The interaction value m is data
here, never a choice variable: the equilibrium layer is responsible for
moving it.

Nothing is kept between calls.  model_matrices enumerates the payoff matrix
and transition tensor afresh each time it is called; both solvers fetch them
once and work on those arrays, and hand the final one-step lookahead to
extract_policy with their result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ModelSpec, StationaryPolicy

_NEG_INF = -np.inf

# A state switches action in policy iteration only when its Q-value improves
# by more than this share of the value scale; below it, round-off in the
# linear solve decides, and tied actions could swap back and forth forever.
_SWITCH_RTOL = 1e-9

# Policy iteration ends in a handful of steps on every built-in model; a
# policy still improving after this many steps means the tables are broken.
_MAX_IMPROVEMENT_STEPS = 500


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

    policy_iteration and value_iteration also store the one-step lookahead at
    the final values, lookahead[x, a] = R[x, a] + beta * T[x, a] @ values,
    from which extract_policy reads the greedy policy.
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


def policy_iteration(model: ModelSpec, m, start: Optional[StationaryPolicy] = None) -> ValueTable:
    """Howard policy iteration (Puterman 1994, section 6.4): the exact value
    of an optimal policy at m.

    Each step evaluates the current policy g exactly, V_g = (I - beta T_g)^-1
    R_g, and moves every state whose lookahead under V_g beats its current
    action by more than a round-off tolerance to its greedy action (lowest
    index on ties).  It stops at the first step that moves no state; the
    result's iterations counts the steps, that last one included.  start is
    the first policy to evaluate (default: the lowest feasible action in each
    state); every feasible start ends at the same greedy policy, so a start
    close to the optimum only saves steps.  Raises RuntimeError if the policy
    is still improving after a fixed number of steps.
    """
    R, T, mask = model_matrices(model, m)
    beta = model.discount
    n = model.n_states
    states = np.arange(n)
    if start is None:
        actions = mask.argmax(axis=1)
    else:
        actions = np.array(start.actions, dtype=int)
        if actions.shape != (n,) or not mask[states, actions].all():
            raise ValueError("start must choose a feasible action in every state")
    identity = np.eye(n)
    for step in range(1, _MAX_IMPROVEMENT_STEPS + 1):
        values = np.linalg.solve(identity - beta * T[states, actions], R[states, actions])
        lookahead = _backup(R, T, beta, values)
        greedy = lookahead.argmax(axis=1)
        best = lookahead[states, greedy]
        gain = best - lookahead[states, actions]
        switch = gain > _SWITCH_RTOL * max(1.0, float(np.max(np.abs(values))))
        if not switch.any():
            return ValueTable(
                values, m, sup_norm_residual=float(np.max(np.abs(best - values))),
                iterations=step, converged=True, lookahead=lookahead,
            )
        actions = np.where(switch, greedy, actions)
    raise RuntimeError(f"policy iteration still improving after {_MAX_IMPROVEMENT_STEPS} steps at m={m}")


def extract_policy(model: ModelSpec, V: ValueTable) -> StationaryPolicy:
    """Greedy policy from the lookahead stored in V (by policy_iteration or
    value_iteration), ties broken by lowest index."""
    # np.argmax returns the first (= lowest-index) maximizer.
    return StationaryPolicy(V.lookahead.argmax(axis=1), V.m)
