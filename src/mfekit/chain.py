"""Policy-induced Markov chains: exact invariant distributions, Monte Carlo
estimates, and ergodicity diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .core import ModelSpec, PopulationState, StationaryPolicy

RESIDUAL_TOL = 1e-12


class ChainError(Exception):
    pass


class NonErgodicChainError(ChainError):
    """No unique invariant distribution (or strict ergodicity was required)."""

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


def _class_period(P: np.ndarray, states: np.ndarray) -> int:
    """Period of an irreducible class: gcd over edges of level[u] + 1 - level[v]."""
    sub = P[np.ix_(states, states)] > 0
    k = len(states)
    level = np.full(k, -1, dtype=int)
    level[0] = 0
    queue = [0]
    g = 0
    while queue:
        u = queue.pop()
        for v in np.where(sub[u])[0]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
            else:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g != 0 else 0


def ergodicity_check(P: TransitionMatrix) -> ErgodicityReport:
    """Irreducibility via strongly connected components of the support digraph
    (any positive probability is an edge), aperiodicity via cycle-length gcds."""
    rows = P.rows
    n = P.n
    support = csr_matrix(rows > 0)
    n_comp, labels = connected_components(support, directed=True, connection="strong")

    # A component is recurrent iff it has no edge leaving it.
    recurrent = []
    transient: list[int] = []
    for c in range(n_comp):
        states = np.where(labels == c)[0]
        mass_inside = rows[np.ix_(states, states)].sum(axis=1)
        if np.all(np.abs(mass_inside - 1.0) <= RESIDUAL_TOL):
            recurrent.append(states)
        else:
            transient.extend(states.tolist())

    irreducible = n_comp == 1
    periods = [_class_period(rows, states) for states in recurrent]
    period = max(periods) if periods else None
    aperiodic = all(p == 1 for p in periods) if periods else False
    return ErgodicityReport(
        ergodic=irreducible and aperiodic,
        irreducible=irreducible,
        aperiodic=aperiodic,
        recurrent_classes=[list(map(int, s)) for s in recurrent],
        transient_states=sorted(transient),
        period=period,
    )


def stationary_distribution(
    P: TransitionMatrix,
    require_ergodic: bool = False,
) -> PopulationState:
    """Exact invariant distribution s with s = s^T P.

    Solves the dense linear system (P^T - I) s = 0 with one row replaced by
    the normalization constraint.  A unique invariant distribution exists as
    long as the chain has a single recurrent class; chains with several
    recurrent classes raise NonErgodicChainError naming the components.  Pass
    require_ergodic=True to insist on full ergodicity (irreducible and
    aperiodic) as well.
    """
    report = ergodicity_check(P)
    if len(report.recurrent_classes) != 1:
        raise NonErgodicChainError(
            f"no unique invariant distribution: {report.describe()}", report
        )
    if require_ergodic and not report.ergodic:
        raise NonErgodicChainError(f"chain is not ergodic: {report.describe()}", report)

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
    burn_in: int = 0,
) -> PopulationState:
    """Empirical state frequencies of the trajectory x_0 .. x_K under g.

    Uses only the model's transition_sample (one draw per step), so it works
    against the restricted model-free view.  Deterministic given the seed.
    No burn-in by default: the average starts at x_0.

    The loop reads the policy from a list and counts visits in Python ints:
    numpy scalar indexing per step would cost more than the draw itself.
    Exact integer counts divided once give the same bits as float counts,
    and tests/test_golden.py pins the populations for fixed seeds.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0 <= burn_in <= K:
        raise ValueError("burn_in must lie in [0, K]")
    rng = np.random.default_rng(seed)
    sample = model.population_sample_fn
    actions = g.actions.tolist()
    counts = [0] * model.n_states
    x = int(x0)
    if burn_in == 0:
        counts[x] += 1
    for k in range(1, K + 1):
        x = int(sample(x, actions[x], m, rng))
        if k >= burn_in:
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
