"""Model-based equilibrium solvers.

The equilibrium residual f(m) = m - M(s^{m,g}) measures how far a candidate
interaction value is from being self-consistent: solve the agent's problem at
m, push the induced chain to its invariant distribution, and re-aggregate.
Roots of f are mean field equilibria.  The agent's problem is solved exactly
by policy iteration (dp.policy_iteration), warm-started from the policy at a
nearby m.  The adaptive solver brackets a root by bisection, which is what
makes convergence possible without contraction or monotonicity structure;
plain fixed-point iteration on the population state is kept as the (often
divergent) baseline, and Broyden's method covers low-dimensional vector
interactions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict
from typing import Callable, Optional

import numpy as np

from . import dp
from .chain import build_chain, stationary_distribution
from .core import (
    ModelSpec,
    PopulationState,
    StationaryPolicy,
    interaction_value,
    interaction_value_detailed,
)


# Solvers whose policy is an exact best response and whose population is an
# exact invariant distribution; solution_certificate checks those claims.
EXACT_ALGORITHMS = ("adaptive_vfi", "broyden", "fixed_point")
INVARIANCE_TOL = 1e-10


class BracketError(ValueError):
    """Endpoint residuals do not bracket a root."""


@dataclass
class SolverConfig:
    """Tolerances and budgets shared by the equilibrium solvers.

    bracket_tol is the scalar tolerance on the bisection bracket width;
    residual_tol the tolerance on |f(m)| (also the dead-zone half-width for
    the noisy learners).  damping applies only to fixed-point iteration.
    """

    bracket_tol: float = 1e-6
    residual_tol: float = 1e-6
    max_outer: int = 60
    damping: float = 1.0

    def __post_init__(self):
        if self.bracket_tol <= 0 or self.residual_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MfeSolution:
    """An equilibrium candidate with its residuals and full provenance."""

    m_star: float | np.ndarray
    policy: Optional[StationaryPolicy]
    population: Optional[PopulationState]
    residual: float
    consistency_residual: float
    algorithm: str
    trace: list = field(default_factory=list)
    seeds: dict = field(default_factory=dict)
    wall_time: float = 0.0
    converged: bool = True
    stop_reason: str = ""
    iterations: int = 0
    model_name: str = ""
    config: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def mean_state(self, model: ModelSpec) -> float:
        return self.population.mean(model.state_space.numeric)

    def var_state(self, model: ModelSpec) -> float:
        return self.population.variance(model.state_space.numeric)


@dataclass
class ResidualEval:
    """f(m) together with the by-products of its evaluation (a sampled f has
    no value table and no unclamped aggregate)."""

    m: float | np.ndarray
    f: float | np.ndarray
    policy: StationaryPolicy
    population: PopulationState
    m_of_s: float | np.ndarray
    value_table: Optional[dp.ValueTable] = None
    f_raw: float | np.ndarray = None   # residual against the unclamped aggregate


def residual(model: ModelSpec, m, *, start: Optional[StationaryPolicy] = None) -> ResidualEval:
    """Evaluate f(m) = m - M(s^{m,g}) by the full model-based pipeline:
    policy iteration -> greedy policy -> induced chain -> exact invariant
    distribution -> interaction value.

    The inner solve is exact and reads no tolerance.  start warm-starts it
    (see dp.policy_iteration): it changes how many steps the solve takes, not
    its result.
    """
    V = dp.policy_iteration(model, m, start)
    g = dp.extract_policy(model, V)
    P = build_chain(model, g, m)
    s = stationary_distribution(P)
    m_of_s, raw, _ = interaction_value_detailed(model, s, g, m)
    f = np.asarray(m, dtype=float) - np.asarray(m_of_s, dtype=float)
    f_raw = np.asarray(m, dtype=float) - raw
    if model.bounds.dim == 1:
        f = float(f)
        f_raw = float(f_raw[0])
    return ResidualEval(m=m, f=f, policy=g, population=s, m_of_s=m_of_s, value_table=V, f_raw=f_raw)


def _consistency_residual(model: ModelSpec, g: StationaryPolicy, s: PopulationState, m) -> float:
    P = build_chain(model, g, m)
    return float(np.abs(s.probs @ P.rows - s.probs).sum())


def bisect_residual(
    evaluate: Callable[[float], ResidualEval],
    lo: float,
    hi: float,
    cfg: SolverConfig,
    trace: list,
    best: Optional[ResidualEval] = None,
    bracket_tol: Optional[float] = None,
) -> tuple[ResidualEval, str, int]:
    """The bisection loop of every scalar solver; evaluate(m) is the
    solver's oracle for f(m), and each step appends a "midpoint" trace row.

    Stops when |f| <= cfg.residual_tol ("residual"); otherwise the endpoint
    on the side of f's sign moves, and the loop stops once the bracket is no
    wider than bracket_tol ("bracket"; None never stops on width) or after
    cfg.max_outer steps ("max_outer").  On a sampled f the residual stop has
    already failed when the bracket moves, so the move is a dead-zone move.
    Returns (evaluation, stop reason, steps): the last evaluation, or at
    "max_outer" the least-|f| one, best included, the earliest on ties.
    """
    for outer in range(1, cfg.max_outer + 1):
        m_t = 0.5 * (lo + hi)
        ev = evaluate(m_t)
        trace.append({"iter": outer, "m": m_t, "f": ev.f, "lo": lo, "hi": hi, "kind": "midpoint"})
        if abs(ev.f) <= cfg.residual_tol:
            return ev, "residual", outer
        if best is None or abs(ev.f) < abs(best.f):
            best = ev
        if ev.f > 0:
            hi = m_t
        else:
            lo = m_t
        if bracket_tol is not None and hi - lo <= bracket_tol:
            return ev, "bracket", outer
    return best, "max_outer", cfg.max_outer


def adaptive_vfi(model: ModelSpec, cfg: Optional[SolverConfig] = None) -> MfeSolution:
    """Bisection on the residual f over [lo, hi] with exact inner solves.

    Each inner solve is warm-started from the policy at the nearest m already
    evaluated.

    Endpoint signs are checked up front: a valid model has f(lo) <= 0 <= f(hi),
    so equal signs indicate a mis-configured interaction or bounds and raise
    BracketError immediately.  Stops when |f(m_t)| <= residual_tol or the
    bracket width <= bracket_tol, whichever comes first; both are recorded.
    """
    if model.bounds.dim != 1:
        raise ValueError("adaptive_vfi requires a scalar interaction (bounds.dim == 1)")
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    lo = float(model.bounds.lo_vec[0])
    hi = float(model.bounds.hi_vec[0])

    cache: dict[float, ResidualEval] = {}

    def f_eval(m: float) -> ResidualEval:
        # Bisection neighbours differ in few states, so the nearest cached
        # policy is a start close to the optimum.
        if m not in cache:
            nearest = min(cache, key=lambda k: abs(k - m), default=None)
            start = None if nearest is None else cache[nearest].policy
            cache[m] = residual(model, m, start=start)
        return cache[m]

    # The pre-check looks at the raw (unclamped) aggregate: clamping would
    # pin the endpoint residuals to the right signs by construction and hide
    # a mis-configured bracket.
    f_lo = f_eval(lo)
    f_hi = f_eval(hi)
    if f_lo.f_raw > 0 or f_hi.f_raw < 0:
        raise BracketError(
            f"endpoint residuals do not bracket a root: f({lo}) = {f_lo.f_raw:.6g}, "
            f"f({hi}) = {f_hi.f_raw:.6g}"
        )

    trace = [
        {"iter": 0, "m": lo, "f": f_lo.f, "lo": lo, "hi": hi, "kind": "endpoint"},
        {"iter": 0, "m": hi, "f": f_hi.f, "lo": lo, "hi": hi, "kind": "endpoint"},
    ]

    best = f_lo if abs(f_lo.f) <= abs(f_hi.f) else f_hi
    best, stop_reason, outer = bisect_residual(f_eval, lo, hi, cfg, trace, best, cfg.bracket_tol)

    consistency = _consistency_residual(model, best.policy, best.population, best.m)
    return MfeSolution(
        m_star=best.m,
        policy=best.policy,
        population=best.population,
        residual=abs(best.f),
        consistency_residual=consistency,
        algorithm="adaptive_vfi",
        trace=trace,
        wall_time=time.perf_counter() - t0,
        converged=stop_reason != "max_outer",
        stop_reason=stop_reason,
        iterations=outer,
        model_name=model.name,
        config=cfg.to_dict(),
    )


def fixed_point_iteration(
    model: ModelSpec,
    s0: PopulationState,
    max_iters: int = 500,
    tol: float = 1e-8,
    cfg: Optional[SolverConfig] = None,
) -> MfeSolution:
    """The classical population-state iteration s_{t+1} = (1-a) s_t + a s_t^T L,
    with a = cfg.damping.

    Non-convergence is a legitimate outcome (it is the baseline's known
    failure mode), so this never raises on oscillation: it returns the full
    trace with converged False.  For models whose interaction needs the
    policy, the previous iteration's policy is used to aggregate; it is also
    the start of the next best response.
    """
    cfg = cfg or SolverConfig()
    damping = cfg.damping
    t0 = time.perf_counter()
    n = model.n_states
    s = np.asarray(s0.probs, dtype=float).copy()
    PopulationState(s).validate(n)

    # Bootstrap interaction with the lowest-index feasible policy.
    g = StationaryPolicy(
        np.array([model.action_space.feasible_at(x)[0] for x in range(n)]),
        m=model.bounds.midpoint(),
    )
    m = interaction_value(model, PopulationState(s), g, model.bounds.midpoint())

    trace = []
    population_trace = [s.copy()]
    converged = False
    delta = np.inf
    for it in range(1, max_iters + 1):
        V = dp.policy_iteration(model, m, start=g)
        g = dp.extract_policy(model, V)
        P = build_chain(model, g, m)
        s_next = (1.0 - damping) * s + damping * (s @ P.rows)
        delta = float(np.abs(s_next - s).sum())
        trace.append({"iter": it, "m": m, "f": delta, "kind": "fixed_point"})
        s = s_next
        population_trace.append(s.copy())
        m = interaction_value(model, PopulationState(s), g, m)
        if delta <= tol:
            converged = True
            break

    population = PopulationState(s)
    consistency = _consistency_residual(model, g, population, m)
    # The iterate's m is computed from its own population, so |m - M(s, g)|
    # is ~0 by construction even mid-oscillation; the meaningful headline is
    # the true equilibrium residual at the final m.
    true_f = residual(model, m, start=g).f if model.bounds.dim == 1 else delta
    return MfeSolution(
        m_star=m,
        policy=g,
        population=population,
        residual=abs(true_f),
        consistency_residual=consistency,
        algorithm="fixed_point",
        trace=trace,
        wall_time=time.perf_counter() - t0,
        converged=converged,
        stop_reason="tol" if converged else "max_iters",
        iterations=len(trace),
        model_name=model.name,
        config={**cfg.to_dict(), "fp_tol": tol, "fp_max_iters": max_iters},
        extras={"population_trace": population_trace, "last_delta": delta},
    )


def broyden_root(
    f: Callable[[np.ndarray], np.ndarray],
    m0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    residual_tol: float = 1e-8,
    max_iters: int = 100,
):
    """Broyden's quasi-Newton iteration with box projection.

    Starts from B_0 = I and maintains the rank-one secant update
    B_t = B_{t-1} + (df - B_{t-1} th) th^T / (th^T th) and steps
    m_{t+1} = P_box(m_t - B_t^{-1} f(m_t)).  Stalled steps (th^T th = 0) or a
    numerically singular B trigger a restart from the identity, which is
    flagged.  Global convergence is not guaranteed; the best iterate is
    returned either way.

    Returns (m_best, f_best, trace, converged, restarts, n_evals).
    """
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    dim = m0.shape[0]
    B = np.eye(dim)

    def project(v):
        return np.clip(v, lo, hi)

    trace = []
    restarts = 0

    m_prev = project(m0)
    f_prev = np.atleast_1d(np.asarray(f(m_prev), dtype=float))
    n_evals = 1
    trace.append({"iter": 0, "m": m_prev.tolist(), "f": f_prev.tolist(), "norm": float(np.linalg.norm(f_prev))})
    best_m, best_f = m_prev, f_prev
    if np.linalg.norm(f_prev) < residual_tol:
        return best_m, best_f, trace, True, restarts, n_evals

    m_t = project(m_prev - np.linalg.solve(B, f_prev))
    for it in range(1, max_iters + 1):
        f_t = np.atleast_1d(np.asarray(f(m_t), dtype=float))
        n_evals += 1
        trace.append({"iter": it, "m": m_t.tolist(), "f": f_t.tolist(), "norm": float(np.linalg.norm(f_t))})
        if np.linalg.norm(f_t) < np.linalg.norm(best_f):
            best_m, best_f = m_t, f_t
        if np.linalg.norm(f_t) < residual_tol:
            return best_m, best_f, trace, True, restarts, n_evals

        theta = m_t - m_prev
        denom = float(theta @ theta)
        if denom == 0.0:
            B = np.eye(dim)
            restarts += 1
            step = f_t
        else:
            df = f_t - f_prev
            B = B + np.outer(df - B @ theta, theta) / denom
            try:
                step = np.linalg.solve(B, f_t)
                if not np.all(np.isfinite(step)):
                    raise np.linalg.LinAlgError("non-finite step")
            except np.linalg.LinAlgError:
                B = np.eye(dim)
                restarts += 1
                step = f_t
        m_prev, f_prev = m_t, f_t
        m_t = project(m_t - step)

    return best_m, best_f, trace, False, restarts, n_evals


def broyden_solve(
    model: ModelSpec,
    cfg: Optional[SolverConfig] = None,
    m0=None,
) -> MfeSolution:
    """Equilibrium search for vector-valued interactions via broyden_root on
    the exact residual; the policy and population of the best iterate are
    attached to the returned solution.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    lo, hi = model.bounds.lo_vec, model.bounds.hi_vec
    if m0 is None:
        m0 = 0.5 * (lo + hi)
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    if not np.all((m0 >= lo) & (m0 <= hi)):
        raise ValueError("m0 must lie inside the interaction bounds")

    cache: dict[tuple, ResidualEval] = {}

    def f(m: np.ndarray) -> np.ndarray:
        key = tuple(np.atleast_1d(m).tolist())
        if key not in cache:
            m = np.asarray(m, dtype=float)
            cache[key] = residual(model, m if model.bounds.dim > 1 else float(m[0]))
        return np.atleast_1d(np.asarray(cache[key].f, dtype=float))

    m_best, f_best, trace, converged, restarts, n_evals = broyden_root(
        f, m0, lo, hi, residual_tol=cfg.residual_tol, max_iters=cfg.max_outer
    )
    ev = cache[tuple(np.atleast_1d(m_best).tolist())]
    m_star = float(m_best[0]) if model.bounds.dim == 1 else m_best
    consistency = _consistency_residual(model, ev.policy, ev.population, m_star)
    return MfeSolution(
        m_star=m_star,
        policy=ev.policy,
        population=ev.population,
        residual=float(np.linalg.norm(f_best)),
        consistency_residual=consistency,
        algorithm="broyden",
        trace=trace,
        wall_time=time.perf_counter() - t0,
        converged=converged,
        stop_reason="residual" if converged else "max_outer",
        iterations=n_evals,
        model_name=model.name,
        config=cfg.to_dict(),
        extras={"restarts": restarts},
    )


@dataclass
class CertificateReport:
    checks: dict
    ok: bool

    def failures(self) -> list[str]:
        return [name for name, (passed, _) in self.checks.items() if not passed]


def solution_certificate(
    model: ModelSpec,
    sol: MfeSolution,
    cfg: Optional[SolverConfig] = None,
) -> CertificateReport:
    """Executable restatement of the equilibrium definition.

    For an exact solve (sol.algorithm in EXACT_ALGORITHMS): (i) optimality,
    the stored policy equals the greedy policy re-derived independently at
    m*; (ii) consistency, the stored population is invariant under the
    induced chain to within 1e-10.  A learned policy approximates rather than
    re-derives the greedy policy, and a Monte Carlo population cannot be
    exactly invariant, so a learned solve is checked instead against the
    consistency residual it stored.  Either way, re-aggregating the
    population must reproduce m* to within the solve's residual tolerance.
    """
    cfg = cfg or SolverConfig(**{k: v for k, v in sol.config.items() if k in SolverConfig.__dataclass_fields__})
    checks = {}

    sol.population.validate(model.n_states)
    sol.policy.validate(model)

    consistency = _consistency_residual(model, sol.policy, sol.population, sol.m_star)
    if sol.algorithm in EXACT_ALGORITHMS:
        V = dp.policy_iteration(model, sol.m_star)
        g_ref = dp.extract_policy(model, V)
        mismatches = int(np.sum(g_ref.actions != sol.policy.actions))
        checks["optimality"] = (mismatches == 0, f"{mismatches} state(s) deviate from the greedy policy")
        checks["consistency"] = (
            consistency <= INVARIANCE_TOL,
            f"||s^T L - s||_1 = {consistency:.3e} (tol {INVARIANCE_TOL:.0e})",
        )
    else:
        stored = sol.consistency_residual
        drift = abs(consistency - stored)
        checks["consistency(stored)"] = (
            drift <= 1e-9 + 1e-6 * max(1.0, abs(stored)),
            f"recomputed {consistency:.3e} vs stored {stored:.3e}",
        )

    m_of_s = interaction_value(model, sol.population, sol.policy, sol.m_star)
    gap = float(np.linalg.norm(np.atleast_1d(sol.m_star) - np.atleast_1d(m_of_s)))
    checks["interaction"] = (
        gap <= cfg.residual_tol,
        f"|m* - M(s, g)| = {gap:.3e} (tol {cfg.residual_tol:.3g})",
    )

    ok = all(passed for passed, _ in checks.values())
    return CertificateReport(checks=checks, ok=ok)
