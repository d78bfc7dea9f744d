"""Model-free equilibrium learners.

The inner learners solve the agent's problem at a frozen interaction value:
tabular Q-learning with epsilon-greedy exploration and experience replay, or
projected policy gradient with direct parameterization.  The adaptive solvers
run either learner inside the exact solver's outer loop
(equilibrium.bisect_residual), which on the sampled residual
f_hat(m) = m - M(s_hat, g_hat) is a dead-zone bisection.

Q-learning and the Monte Carlo sampling step touch the model only through the
restricted SampleView, so neither the expected payoff nor the enumerated
transition law can leak into the model-free path.  The exact-gradient policy
gradient variant is the exception: it differentiates through the model's own
transition law (a sampled estimator is available when that is off limits).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, asdict, replace
from typing import Optional

import numpy as np

from . import dp
from .chain import monte_carlo_stationary
from .core import (
    SampleView,
    StationaryPolicy,
    as_sample_view,
    interaction_value,
)
from .equilibrium import MfeSolution, ResidualEval, SolverConfig, _consistency_residual, bisect_residual


@dataclass
class LearningConfig:
    """Hyperparameters for the inner learners and the sampling step.

    updates is the Q-learning budget H, counted in environment steps (1,000
    episodes of length 100 means H = 100,000); each step replays one
    minibatch of stored tuples through the tabular update, so the table
    absorbs minibatch * H tuple-updates in total.  The constant learning
    rate matches the reference experiments; the Robbins-Monro mode
    rate_c / (1 + visits)^rate_exponent satisfies the classical step-size
    conditions and is what the convergence tests use.
    """

    updates: int = 100_000            # H
    learning_rate: float = 0.003
    rate_mode: str = "constant"       # "constant" | "robbins_monro"
    rate_c: float = 1.0
    rate_exponent: float = 0.7
    epsilon0: float = 0.9
    epsilon_min: float = 0.05             # reached after the full episode budget
    episode_length: int = 100
    replay_capacity: int = 500
    minibatch: int = 16
    mc_samples: int = 200_000         # K
    seed: int = 0
    tail_average: float = 0.0         # fraction of final updates averaged into the readout
    pg_steps: int = 2_000
    pg_rate: float = 0.05
    pg_estimator: str = "exact"       # "exact" | "sampled"
    pg_rollouts: int = 64
    pg_horizon: int = 60

    def __post_init__(self):
        if min(self.updates, self.episode_length, self.replay_capacity, self.minibatch,
               self.mc_samples, self.pg_steps) < 1:
            raise ValueError("all counts must be >= 1")
        if not (0.0 <= self.epsilon_min <= self.epsilon0 <= 1.0):
            raise ValueError("epsilon schedule must satisfy 0 <= eps_min <= eps0 <= 1")
        if self.rate_mode == "constant" and not 0.0 < self.learning_rate < 1.0:
            raise ValueError("constant learning rate must lie in (0, 1)")
        if self.rate_mode not in ("constant", "robbins_monro"):
            raise ValueError(f"unknown rate_mode {self.rate_mode!r}")
        if not 0.0 <= self.tail_average < 1.0:
            raise ValueError("tail_average must lie in [0, 1)")
        if self.pg_estimator not in ("exact", "sampled"):
            raise ValueError(f"unknown pg_estimator {self.pg_estimator!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class QTable:
    """Tabular action values at a fixed interaction value, plus update counts."""

    q: np.ndarray                    # (n_states, n_actions), NaN on infeasible
    m: float
    feasible: np.ndarray             # boolean mask
    update_counts: np.ndarray        # per-pair tuple-update counter
    env_steps: int = 0               # environment transitions consumed (= H)
    episodes: int = 0
    trace: list = field(default_factory=list)   # (episode, mean reward, epsilon)

    @property
    def total_updates(self) -> int:
        return int(self.update_counts.sum())


@dataclass
class DirectPolicy:
    """Stochastic policy sigma(x, .) over feasible actions (direct params)."""

    probs: np.ndarray                # (n_states, n_actions), zero on infeasible
    m: float
    feasible: np.ndarray
    value: Optional[float] = None

    def validate(self) -> None:
        if np.any(self.probs < 0):
            raise ValueError("policy probabilities must be non-negative")
        if np.any(self.probs[~self.feasible] != 0.0):
            raise ValueError("probability mass on infeasible action")
        sums = self.probs.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError("policy rows must sum to 1")

    def mode(self) -> StationaryPolicy:
        """Deterministic reduction: highest-probability action, ties low."""
        masked = np.where(self.feasible, self.probs, -np.inf)
        return StationaryPolicy(masked.argmax(axis=1), self.m)


def q_learning(model, m: float, cfg: LearningConfig) -> QTable:
    """Episodic asynchronous Q-learning at a frozen interaction value.

    Each environment step: epsilon-greedy action, one simulator draw, push
    the tuple into the FIFO replay ring, then replay a minibatch of stored
    tuples through the standard update with the current table.  Episodes
    restart from a uniformly drawn state, which keeps every state visited.
    Runs exactly cfg.updates environment steps and is deterministic given
    cfg.seed.

    With cfg.tail_average = w > 0 the returned table is the time-average of
    the iterates over the final fraction w of tuple-updates (Polyak-Ruppert
    readout); the recursion itself is unchanged.  The averaged table damps
    the stationary noise of the iterates and is what the oracle-comparison
    tests use.

    The loop touches one table cell at a time, and indexing a numpy array
    per scalar costs several times a Python list lookup, so the table, the
    counts, the row maxima, the replay ring and the averaging accumulators
    are plain lists; numpy only builds the returned QTable.  The arithmetic
    is the same IEEE double arithmetic as an array version, and the greedy
    action is the first maximum in ascending action order, so the outputs
    for a seed are pinned bit for bit by tests/test_golden.py.
    """
    view: SampleView = as_sample_view(model)
    rng = np.random.default_rng(cfg.seed)
    random, integers = rng.random, rng.integers
    payoff_sample = view.payoff_sample
    n, k = view.n_states, view.n_actions
    beta = view.discount
    feasible = view.action_space.mask(n)
    feasible_lists = [tuple(view.action_space.feasible_at(x)) for x in range(n)]
    ascending = [sorted(feas) for feas in feasible_lists]   # greedy scan order

    Q = [[0.0] * k for _ in range(n)]             # table; masked array exported at the end
    counts = [[0] * k for _ in range(n)]

    H = cfg.updates
    episodes_total = max(1, -(-H // cfg.episode_length))
    if cfg.epsilon0 > 0 and cfg.epsilon_min > 0:
        decay = (cfg.epsilon_min / cfg.epsilon0) ** (1.0 / episodes_total)
    else:
        decay = 1.0

    capacity = cfg.replay_capacity
    ring = [None] * capacity                      # (x, a, r, y) tuples, FIFO
    buf_size = 0
    buf_head = 0

    # Row maxima over feasible actions, maintained incrementally: replay
    # targets need max_a' Q(y, a') once per tuple and recomputing the row is
    # the dominant cost otherwise.
    row_max = [0.0] * n

    constant_rate = cfg.rate_mode == "constant"
    lr = cfg.learning_rate
    rate_c, rate_exp = cfg.rate_c, cfg.rate_exponent
    batch = cfg.minibatch

    # Tail-average readout bookkeeping: between its updates a cell's value is
    # constant, so the time-average accumulates value * holding-time in O(1)
    # per update.
    total_tuple_updates = H * batch
    avg_start = int(round((1.0 - cfg.tail_average) * total_tuple_updates))
    averaging = cfg.tail_average > 0.0
    acc = [[0.0] * k for _ in range(n)]
    last_u = [[avg_start] * k for _ in range(n)]
    u = 0

    epsilon = cfg.epsilon0
    episode = 0
    trace = []
    x = int(integers(n))
    step_in_episode = 0
    episode_reward = 0.0

    for _ in range(H):
        if random() < epsilon:
            feas = feasible_lists[x]
            a = feas[integers(len(feas))]
        else:
            a = max(ascending[x], key=Q[x].__getitem__)   # first maximum: ties go low
        r, y = payoff_sample(x, a, m, rng)
        r, y = float(r), int(y)
        episode_reward += r

        ring[buf_head] = (x, a, r, y)
        buf_head = (buf_head + 1) % capacity
        buf_size = min(buf_size + 1, capacity)

        for i in integers(buf_size, size=batch).tolist():
            bx, ba, br, by = ring[i]
            target = br + beta * row_max[by]
            q_row = Q[bx]
            if constant_rate:
                gamma = lr
            else:
                gamma = min(rate_c / (1.0 + counts[bx][ba]) ** rate_exp, 1.0)
            old = q_row[ba]
            new = old + gamma * (target - old)
            if averaging and u >= avg_start:
                acc[bx][ba] += old * (u - last_u[bx][ba])
                last_u[bx][ba] = u
            q_row[ba] = new
            counts[bx][ba] += 1
            u += 1
            if new > row_max[bx]:
                row_max[bx] = new
            elif old == row_max[bx] and new < old:
                row_max[bx] = max([q_row[b] for b in feasible_lists[bx]])

        x = y
        step_in_episode += 1
        if step_in_episode >= cfg.episode_length:
            trace.append((episode, episode_reward / step_in_episode, epsilon))
            episode += 1
            epsilon = max(cfg.epsilon_min, cfg.epsilon0 * decay**episode)
            x = int(integers(n))
            step_in_episode = 0
            episode_reward = 0.0

    q_out = np.array(Q)
    if averaging and total_tuple_updates > avg_start:
        q_out = (np.array(acc) + q_out * (total_tuple_updates - np.array(last_u))) / (
            total_tuple_updates - avg_start
        )

    return QTable(
        q=np.where(feasible, q_out, np.nan), m=float(m), feasible=feasible,
        update_counts=np.array(counts, dtype=np.int64), env_steps=H, episodes=episode,
        trace=trace,
    )


def greedy_policy(q: QTable) -> StationaryPolicy:
    """Feasible argmax per state, lowest index on ties."""
    masked = np.where(q.feasible, q.q, -np.inf)
    masked = np.where(np.isnan(masked), -np.inf, masked)
    return StationaryPolicy(masked.argmax(axis=1), q.m)


def simplex_projection(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-and-threshold)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, len(v) + 1)
    cond = u + (1.0 - css) / j > 0
    rho = int(np.nonzero(cond)[0][-1]) + 1
    tau = (css[rho - 1] - 1.0) / rho
    return np.maximum(v - tau, 0.0)


def _policy_value_and_gradient(R: np.ndarray, T: np.ndarray, mask: np.ndarray,
                               beta: float, sigma: np.ndarray):
    """Exact value and gradient of the discounted return under sigma, on the
    model's (R, T, mask) tables at the frozen m.

    Direct parameterization: grad[x, a] = d(x) * Q_sigma(x, a) / (1 - beta)
    with d the normalized discounted occupancy from a uniform start.
    """
    n = mask.shape[0]
    R0 = np.where(mask, R, 0.0)
    P_sigma = np.einsum("xa,xay->xy", sigma, T)
    r_sigma = np.einsum("xa,xa->x", sigma, R0)
    V = np.linalg.solve(np.eye(n) - beta * P_sigma, r_sigma)
    Q = np.where(mask, R0 + beta * (T @ V), 0.0)
    rho0 = np.full(n, 1.0 / n)
    # d = (1 - beta) * rho0^T (I - beta P)^{-1}
    d = (1.0 - beta) * np.linalg.solve((np.eye(n) - beta * P_sigma).T, rho0)
    grad = np.where(mask, d[:, None] * Q / (1.0 - beta), 0.0)
    return float(rho0 @ V), grad


def _sampled_value_and_gradient(view: SampleView, sigma: np.ndarray, m: float,
                                cfg: LearningConfig, rng: np.random.Generator):
    """Monte Carlo estimate of the same gradient from simulator rollouts.

    Discounted occupancy is estimated by weighting visits with beta^t; Q by
    the discounted return from the first visit of each (x, a) per rollout.
    """
    n, k = view.n_states, view.n_actions
    beta = view.discount
    occ = np.zeros(n)
    q_sum = np.zeros((n, k))
    q_cnt = np.zeros((n, k))
    value_sum = 0.0
    for _ in range(cfg.pg_rollouts):
        x = int(rng.integers(n))
        rewards = []
        visits = []
        for t in range(cfg.pg_horizon):
            a = int(rng.choice(k, p=sigma[x]))
            occ[x] += beta**t
            visits.append((x, a, t))
            r, y = view.payoff_sample(x, a, m, rng)
            rewards.append(r)
            x = int(y)
        returns = np.zeros(len(rewards))
        acc = 0.0
        for t in reversed(range(len(rewards))):
            acc = rewards[t] + beta * acc
            returns[t] = acc
        value_sum += returns[0]
        seen = set()
        for (x_t, a_t, t) in visits:
            if (x_t, a_t) not in seen:
                seen.add((x_t, a_t))
                q_sum[x_t, a_t] += returns[t]
                q_cnt[x_t, a_t] += 1.0
    d = occ / occ.sum()
    q_hat = np.divide(q_sum, q_cnt, out=np.zeros_like(q_sum), where=q_cnt > 0)
    grad = d[:, None] * q_hat / (1.0 - beta)
    return value_sum / cfg.pg_rollouts, grad


def projected_policy_gradient(model, m: float, cfg: LearningConfig) -> DirectPolicy:
    """Projected gradient ascent on the direct policy parameterization.

    Each of cfg.pg_steps steps moves sigma along the policy gradient, scaled
    by cfg.pg_rate, and projects every state's row back onto the simplex over
    its feasible actions.  The exact estimator differentiates through the
    model's tables at m, built once per call; the sampled estimator only
    touches the simulator.  Deterministic given cfg.seed.
    """
    exact = cfg.pg_estimator == "exact"
    rng = np.random.default_rng(cfg.seed)

    if exact:
        R, T, mask = dp.model_matrices(model, m)
    else:
        view = as_sample_view(model)
        mask = view.action_space.mask(view.n_states)
    n = mask.shape[0]
    feas_idx = [np.where(mask[x])[0] for x in range(n)]

    sigma = np.where(mask, 1.0, 0.0)
    sigma /= sigma.sum(axis=1, keepdims=True)

    value = None
    for _ in range(cfg.pg_steps):
        if exact:
            value, grad = _policy_value_and_gradient(R, T, mask, model.discount, sigma)
        else:
            value, grad = _sampled_value_and_gradient(view, sigma, m, cfg, rng)
        updated = sigma + cfg.pg_rate * grad
        sigma = np.zeros_like(sigma)
        for x in range(n):
            sigma[x, feas_idx[x]] = simplex_projection(updated[x, feas_idx[x]])
    if exact:
        value, _ = _policy_value_and_gradient(R, T, mask, model.discount, sigma)
    return DirectPolicy(probs=sigma, m=float(m), feasible=mask, value=value)


def spawned_seed(base_seed: int, *key: int) -> int:
    """Stable child seed for a key such as a sweep cell's grid index or an
    outer step and its role; independent of the order keys are drawn in."""
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _adaptive_sampled_bisection(
    model,
    scfg: SolverConfig,
    lcfg: LearningConfig,
    inner,               # (m, LearningConfig) -> StationaryPolicy
    algorithm: str,
) -> MfeSolution:
    """Dead-zone bisection (equilibrium.bisect_residual, delta = residual_tol,
    no width stop) on the sampled residual, shared by both learners.

    The oracle for outer step t learns a policy at the midpoint with the
    seed spawned from (t, 0), estimates its invariant distribution from K
    transitions with the seed spawned from (t, 1), and returns
    f_hat = m - M(s_hat, g_hat).
    """
    if model.bounds.dim != 1:
        raise ValueError("the adaptive learners require a scalar interaction")
    view = as_sample_view(model)
    t0 = time.perf_counter()
    x0 = 0   # minimal state index; recorded in provenance
    steps = itertools.count(1)

    def evaluate(m_t: float) -> ResidualEval:
        outer = next(steps)
        g_t = inner(m_t, replace(lcfg, seed=spawned_seed(lcfg.seed, outer, 0)))
        mc_seed = spawned_seed(lcfg.seed, outer, 1)
        s_hat = monte_carlo_stationary(view, g_t, m_t, lcfg.mc_samples, seed=mc_seed, x0=x0)
        m_of_s = interaction_value(model, s_hat, g_t, m_t)
        return ResidualEval(m=m_t, f=m_t - float(m_of_s), policy=g_t, population=s_hat, m_of_s=m_of_s)

    trace = []
    lo, hi = float(model.bounds.lo_vec[0]), float(model.bounds.hi_vec[0])
    best, stop_reason, outer = bisect_residual(evaluate, lo, hi, scfg, trace)

    # Diagnostic only: the exact consistency residual needs the enumerated
    # kernel, which pure simulators may not provide.  The solve itself stays
    # model-free either way.
    try:
        consistency = _consistency_residual(model, best.policy, best.population, best.m)
    except Exception:
        consistency = float("nan")
    return MfeSolution(
        m_star=best.m,
        policy=best.policy,
        population=best.population,
        residual=abs(best.f),
        consistency_residual=consistency,
        algorithm=algorithm,
        trace=trace,
        seeds={"base": lcfg.seed},
        wall_time=time.perf_counter() - t0,
        converged=stop_reason != "max_outer",
        stop_reason=stop_reason,
        iterations=outer,
        model_name=model.name,
        config={**scfg.to_dict(), **lcfg.to_dict()},
        extras={"x0": x0, "model_free": algorithm == "adaptive_q_learning"},
    )


def adaptive_q_learning(model, scfg: SolverConfig, lcfg: LearningConfig) -> MfeSolution:
    """Equilibrium search with Q-learning as the inner solver (model-free)."""
    view = as_sample_view(model)

    def inner(m_t: float, cfg: LearningConfig) -> StationaryPolicy:
        return greedy_policy(q_learning(view, m_t, cfg))

    return _adaptive_sampled_bisection(model, scfg, lcfg, inner, "adaptive_q_learning")


def adaptive_policy_gradient(model, scfg: SolverConfig, lcfg: LearningConfig) -> MfeSolution:
    """Equilibrium search with projected policy gradient as the inner solver.

    The sampling step simulates the mode (highest-probability action) of the
    learned stochastic policy, the natural deterministic reduction used for
    the chain estimate.
    """

    def inner(m_t: float, cfg: LearningConfig) -> StationaryPolicy:
        return projected_policy_gradient(model, m_t, cfg).mode()

    return _adaptive_sampled_bisection(model, scfg, lcfg, inner, "adaptive_policy_gradient")
