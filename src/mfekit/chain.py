"""Policy-induced Markov chains: exact invariant distributions, Monte Carlo
estimates, and ergodicity diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ModelSpec, PopulationState, StationaryPolicy

RESIDUAL_TOL = 1e-12


class ChainError(Exception):
    pass


class NonErgodicChainError(ChainError):
    """No unique invariant distribution."""

    def __init__(self, message: str, report: "ErgodicityReport"):
        super().__init__(message)
        self.report = report


class IllConditionedChainError(ChainError):
    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


@dataclass
class TransitionMatrix:
    """Row-stochastic matrix of the chain induced by a policy at fixed m."""

    rows: np.ndarray
    m: float | np.ndarray = math.nan
    policy: Optional[np.ndarray] = None

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        n, k = self.rows.shape
        if n != k:
            raise ValueError("transition matrix must be square")
        if np.any(self.rows < 0):
            raise ValueError("transition matrix has negative entries")
        sums = self.rows.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > RESIDUAL_TOL)[0]
        if bad.size:
            raise ValueError(f"rows {bad.tolist()} do not sum to 1")

    @property
    def n(self) -> int:
        return self.rows.shape[0]


@dataclass
class ErgodicityReport:
    ergodic: bool
    irreducible: bool
    aperiodic: bool
    recurrent_classes: list
    transient_states: list
    period: Optional[int]

    def describe(self) -> str:
        if self.ergodic:
            return "ergodic"
        parts = []
        if not self.irreducible:
            parts.append(
                f"reducible: {len(self.recurrent_classes)} recurrent class(es) "
                f"{[sorted(c) for c in self.recurrent_classes]}, "
                f"{len(self.transient_states)} transient state(s)"
            )
        if not self.aperiodic:
            parts.append(f"periodic with period {self.period}")
        return "; ".join(parts)


def build_chain(model: ModelSpec, g: StationaryPolicy, m) -> TransitionMatrix:
    """Chain of the population dynamics under g: row x is the (population)
    transition row at (x, g(x), m)."""
    n = model.n_states
    kernel = model.population_row_fn
    rows = np.zeros((n, n))
    for x in range(n):
        rows[x, :] = kernel(x, int(g.actions[x]), m)
    return TransitionMatrix(rows, m=m, policy=np.array(g.actions))


def _strong_components(support: np.ndarray) -> tuple[int, np.ndarray]:
    """Strongly connected components of the digraph with adjacency matrix
    support, by iterative Kosaraju.  Returns (count, labels)."""
    n = support.shape[0]

    def adjacency(matrix):
        # Row u's neighbours are targets[bounds[u]:bounds[u + 1]].
        sources, targets = np.nonzero(matrix)
        return targets.tolist(), np.searchsorted(sources, np.arange(n + 1)).tolist()

    succ, succ_at = adjacency(support)
    pred, pred_at = adjacency(support.T)

    # Pass 1: the order in which depth-first searches of the graph finish.
    finished: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[succ_at[root]:succ_at[root + 1]]))]
        while stack:
            u, neighbours = stack[-1]
            for v in neighbours:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(succ[succ_at[v]:succ_at[v + 1]])))
                    break
            else:
                stack.pop()
                finished.append(u)

    # Pass 2: searches of the reversed graph, latest finisher first; each
    # one collects exactly one component.
    labels = [-1] * n
    count = 0
    for root in reversed(finished):
        if labels[root] >= 0:
            continue
        labels[root] = count
        stack = [root]
        while stack:
            u = stack.pop()
            for v in pred[pred_at[u]:pred_at[u + 1]]:
                if labels[v] < 0:
                    labels[v] = count
                    stack.append(v)
        count += 1
    return count, np.array(labels)


def _class_period(support: np.ndarray, states: np.ndarray) -> int:
    """Period of an irreducible class: gcd over its edges (u, v) of
    level[u] + 1 - level[v], with level the breadth-first distance from the
    class's first state."""
    sub = support[np.ix_(states, states)]
    level = np.full(len(states), -1)
    level[0] = 0
    frontier = level == 0
    depth = 0
    while frontier.any():
        depth += 1
        frontier = sub[frontier].any(axis=0) & (level < 0)
        level[frontier] = depth
    u, v = np.nonzero(sub)
    return int(np.gcd.reduce(level[u] + 1 - level[v]))


def ergodicity_check(P: TransitionMatrix) -> ErgodicityReport:
    """Irreducibility via strongly connected components of the support digraph
    (any positive probability is an edge), aperiodicity via cycle-length gcds.

    Recurrent classes are listed in the order of their smallest state.
    """
    rows = P.rows
    support = rows > 0
    n_comp, labels = _strong_components(support)

    # A component is recurrent iff no probability mass leaves any of its rows.
    same = labels[:, None] == labels[None, :]
    mass_inside = np.sum(rows, axis=1, where=same)
    closed = np.ones(n_comp, dtype=bool)
    closed[labels[np.abs(mass_inside - 1.0) > RESIDUAL_TOL]] = False
    recurrent = sorted((np.flatnonzero(labels == c) for c in np.flatnonzero(closed)), key=lambda s: s[0])
    transient = np.flatnonzero(~closed[labels])

    irreducible = n_comp == 1
    periods = [_class_period(support, states) for states in recurrent]
    period = max(periods) if periods else None
    aperiodic = all(p == 1 for p in periods) if periods else False
    return ErgodicityReport(
        ergodic=irreducible and aperiodic,
        irreducible=irreducible,
        aperiodic=aperiodic,
        recurrent_classes=[s.tolist() for s in recurrent],
        transient_states=transient.tolist(),
        period=period,
    )


def stationary_distribution(P: TransitionMatrix) -> PopulationState:
    """Exact invariant distribution s with s = s^T P.

    Solves the dense linear system (P^T - I) s = 0 with one row replaced by
    the normalization constraint.  A unique invariant distribution exists as
    long as the chain has a single recurrent class; chains with several
    recurrent classes raise NonErgodicChainError naming the components.
    """
    report = ergodicity_check(P)
    if len(report.recurrent_classes) != 1:
        raise NonErgodicChainError(
            f"no unique invariant distribution: {report.describe()}", report
        )

    n = P.n
    A = P.rows.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        s = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedChainError(
            f"stationary solve failed: {exc} (cond={np.linalg.cond(A):.3e})",
            condition=float(np.linalg.cond(A)),
        ) from exc

    # Round-off can leave tiny negative mass on transient states.
    s = np.where(np.abs(s) < 1e-13, 0.0, s)
    s = np.clip(s, 0.0, None)
    s = s / s.sum()
    residual = float(np.abs(s @ P.rows - s).sum())
    if residual > RESIDUAL_TOL:
        raise IllConditionedChainError(
            f"stationary residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} "
            f"(cond={np.linalg.cond(A):.3e})",
            condition=float(np.linalg.cond(A)),
        )
    return PopulationState(s)


def monte_carlo_stationary(
    model,
    g: StationaryPolicy,
    m,
    K: int,
    seed: int,
    x0: int = 0,
) -> PopulationState:
    """Empirical state frequencies of the trajectory x_0 .. x_K under g.

    Uses only the model's population_sample_fn (one draw per step), so it
    works against the restricted model-free view.  Deterministic given the seed.
    There is no burn-in: the average starts at x_0.

    The loop reads the policy from a list and counts visits in Python ints:
    numpy scalar indexing per step would cost more than the draw itself.
    Exact integer counts divided once give the same bits as float counts,
    and tests/test_golden.py pins the populations for fixed seeds.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    rng = np.random.default_rng(seed)
    sample = model.population_sample_fn
    actions = g.actions.tolist()
    counts = [0] * model.n_states
    x = int(x0)
    counts[x] += 1
    for _ in range(K):
        x = int(sample(x, actions[x], m, rng))
        counts[x] += 1
    counts = np.array(counts, dtype=float)
    return PopulationState(counts / counts.sum())


def population_to_csv(state_space, probs: np.ndarray) -> str:
    """CSV rendering: header `state_label,probability`, 12 significant digits."""
    import csv
    import io as _io

    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["state_label", "probability"])
    for label, p in zip(state_space.labels, probs):
        writer.writerow([str(label), format(float(p), ".12g")])
    return buf.getvalue()
