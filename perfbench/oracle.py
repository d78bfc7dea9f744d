"""Exact equilibrium oracle that is independent of mfekit's solvers.

It reads only a model's own law -- ``payoff``, ``transition_row``,
``population_row_fn`` and the ``interaction`` aggregate -- and never calls
``mfekit.dp``, ``mfekit.chain`` or ``mfekit.equilibrium``.  Policies are
evaluated exactly by a linear solve, optimal policies are found by Howard
policy iteration with ties going to the lowest action index, and invariant
distributions come from a least-squares solve of the balance equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A Q-value gap counts as a real improvement only above this share of the
# value scale; below it, float round-off in the linear solves decides.
GAP_RTOL = 1e-9


@dataclass
class Law:
    """Payoffs R[x, a] (-inf when infeasible) and rows T[x, a, :] at one m."""

    model: object
    m: float
    R: np.ndarray
    T: np.ndarray

    @classmethod
    def at(cls, model, m) -> "Law":
        n, k = model.n_states, model.n_actions
        R = np.full((n, k), -np.inf)
        T = np.zeros((n, k, n))
        for x in range(n):
            for a in model.action_space.feasible_at(x):
                R[x, a] = model.payoff(x, a, m)
                T[x, a] = model.transition_row(x, a, m)
        return cls(model, m, R, T)

    @property
    def beta(self) -> float:
        return self.model.discount

    def evaluate(self, actions) -> np.ndarray:
        """V_g = (I - beta T_g)^-1 R_g, exactly."""
        idx = np.arange(len(actions))
        T_g = self.T[idx, actions]
        return np.linalg.solve(np.eye(len(actions)) - self.beta * T_g, self.R[idx, actions])

    def q_values(self, V: np.ndarray) -> np.ndarray:
        return self.R + self.beta * (self.T @ V)

    def gap_tol(self, V: np.ndarray) -> float:
        return GAP_RTOL * max(1.0, float(np.max(np.abs(V))))

    def optimal_policy(self) -> np.ndarray:
        """Howard policy iteration from the lowest feasible action.

        A state switches action only on a gap above the round-off tolerance,
        so the iteration cannot cycle between tied actions.  The returned
        policy takes, in each state, the lowest index whose optimal Q-value
        is within that tolerance of the best.
        """
        model = self.model
        n = model.n_states
        actions = np.array([min(model.action_space.feasible_at(x)) for x in range(n)])
        idx = np.arange(n)
        for _ in range(10 * n * model.n_actions + 10):
            V = self.evaluate(actions)
            Q = self.q_values(V)
            tol = self.gap_tol(V)
            best = Q.argmax(axis=1)
            switch = Q[idx, best] - Q[idx, actions] > tol
            if not switch.any():
                return (Q >= Q.max(axis=1, keepdims=True) - tol).argmax(axis=1)
            actions = np.where(switch, best, actions)
        raise RuntimeError("policy iteration did not terminate")

    def population_chain(self, actions) -> np.ndarray:
        """Rows of the population chain under the policy, from population_row_fn."""
        kernel = self.model.population_row_fn
        return np.array([kernel(x, int(a), self.m) for x, a in enumerate(actions)], dtype=float)


def invariant_distribution(P: np.ndarray) -> np.ndarray:
    """Least-squares solution of s P = s, sum(s) = 1."""
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    s, *_ = np.linalg.lstsq(A, b, rcond=None)
    s = np.clip(s, 0.0, None)
    return s / s.sum()


def aggregate(model, s, actions, m) -> float:
    """The raw interaction value M(s, g) at m, unclamped."""
    return float(np.atleast_1d(model.interaction(np.asarray(s, dtype=float), np.asarray(actions), m))[0])


@dataclass
class Evaluation:
    """The oracle's own f(m) with the policy and population behind it."""

    m: float
    f: float
    actions: np.ndarray
    population: np.ndarray


def evaluate(model, m: float) -> Evaluation:
    law = Law.at(model, m)
    g = law.optimal_policy()
    s = invariant_distribution(law.population_chain(g))
    return Evaluation(m=m, f=m - aggregate(model, s, g, m), actions=g, population=s)


def bisect(model, residual_tol: float = 1e-8, bracket_tol: float = 1e-10, max_iters: int = 200) -> Evaluation:
    """Reference m* by bisection on the oracle's own f over the model's bounds.

    Returns the first midpoint with |f| <= residual_tol, or the last one once
    the bracket is narrower than bracket_tol.
    """
    lo = float(model.bounds.lo_vec[0])
    hi = float(model.bounds.hi_vec[0])
    ev = None
    for _ in range(max_iters):
        ev = evaluate(model, 0.5 * (lo + hi))
        if abs(ev.f) <= residual_tol:
            return ev
        if ev.f > 0:
            hi = ev.m
        else:
            lo = ev.m
        if hi - lo <= bracket_tol:
            return ev
    return ev
