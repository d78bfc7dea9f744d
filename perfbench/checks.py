"""Checks of mfekit's outputs against the exact oracle and the paper's statics.

Each ``*_problems`` function returns a list of messages, empty when every
check confirms the program's claim.  An operation counts as failed when its
list is not empty.  The property functions look across the operations of one
round; a violated property makes the run incorrect.
"""

from __future__ import annotations

import numpy as np

import oracle

INVARIANCE_TOL = 1e-10       # L1 drift of the returned population under the oracle's chain
MEAN_RTOL = 1e-9             # sweep.csv carries 12 significant digits
TV_TOL = 0.01                # Monte Carlo population vs the exact invariant distribution


def exact_solution_problems(model, m_star, actions, population, residual_tol) -> list[str]:
    """An exact solve's claim: the policy is optimal at m*, the population is
    invariant under it, and m* reproduces itself through the aggregate."""
    actions = np.asarray(actions, dtype=int)
    s = np.asarray(population, dtype=float)
    law = oracle.Law.at(model, m_star)
    V = law.evaluate(actions)
    Q = law.q_values(V)
    gap = float(np.max(Q.max(axis=1) - Q[np.arange(len(actions)), actions]))
    problems = []
    if gap > law.gap_tol(V):
        problems.append(f"an action improves on the policy by {gap:.3g}")
    drift = float(np.abs(s @ law.population_chain(actions) - s).sum())
    if drift > INVARIANCE_TOL:
        problems.append(f"population drifts by {drift:.3g} (L1) under the policy's chain")
    f = abs(m_star - oracle.aggregate(model, s, actions, m_star))
    if f > residual_tol:
        problems.append(f"|m* - M(s, g)| = {f:.3g} exceeds residual_tol {residual_tol:g}")
    return problems


def sweep_row_problems(model, m_star, mean_state, residual_tol) -> list[str]:
    """A sweep row's claim, redone by the oracle at the row's m*."""
    ev = oracle.evaluate(model, m_star)
    problems = []
    if abs(ev.f) > residual_tol:
        problems.append(f"oracle |f(m*)| = {abs(ev.f):.3g} exceeds residual_tol {residual_tol:g}")
    mean = float(ev.population @ model.state_space.numeric)
    if abs(mean - mean_state) > MEAN_RTOL * max(1.0, abs(mean)):
        problems.append(f"mean_state {mean_state:.12g} but the oracle finds {mean:.12g}")
    return problems


def model_free_step_problems(model, sol, residual_tol) -> list[str]:
    """One outer step of the model-free bisection, checked at its midpoint m.

    The sampled population must match the exact invariant distribution of
    the learned policy, the reported residual must be the one the population
    gives, the step must move the bracket the way the oracle's f(m) points,
    and convergence may be claimed only when the residual is within tolerance.
    """
    m = float(sol.m_star)
    g = np.asarray(sol.policy.actions, dtype=int)
    s = np.asarray(sol.population.probs, dtype=float)
    law = oracle.Law.at(model, m)
    s_exact = oracle.invariant_distribution(law.population_chain(g))
    problems = []
    tv = 0.5 * float(np.abs(s - s_exact).sum())
    if tv > TV_TOL:
        problems.append(f"total variation {tv:.3g} from the learned policy's invariant distribution")
    f_hat = m - oracle.aggregate(model, s, g, m)
    if abs(abs(f_hat) - sol.residual) > 1e-9:
        problems.append(f"reported residual {sol.residual:.6g} but the population gives {abs(f_hat):.6g}")
    f_exact = oracle.evaluate(model, m).f
    if np.sign(f_hat) != np.sign(f_exact):
        problems.append(f"sampled f = {f_hat:.3g} points against the oracle's f = {f_exact:.3g}")
    if sol.converged != (abs(f_hat) <= residual_tol):
        problems.append(f"converged={sol.converged} with |f| = {abs(f_hat):.3g}")
    return problems


def same_result_problems(a, b) -> list[str]:
    """Two solves with one seed must return the same m, residual and population."""
    same = (a.m_star == b.m_star and a.residual == b.residual
            and np.array_equal(a.population.probs, b.population.probs)
            and np.array_equal(a.policy.actions, b.policy.actions))
    return [] if same else [f"one seed gave m = {a.m_star!r} and then {b.m_star!r}"]


def _nondecreasing(values, tol=1e-3) -> bool:
    return all(b >= a - tol for a, b in zip(values, values[1:]))


def statics_properties(m_star: dict, mean_state: dict, accepts: dict) -> list[str]:
    """The comparative statics and calibrations of the paper.

    ``m_star`` and ``mean_state`` map (model, parameter value) to the solve's
    figures; ``accepts`` maps a ridesharing long-ride payoff to the idle
    agent's accept decision for request types 1, 2 and 3.
    """
    problems = []
    alphas = [m_star["capacity", a] for a in (40.0, 45.0, 50.0, 55.0)]
    if not _nondecreasing(alphas):
        problems.append(f"capacity m* not nondecreasing in alpha: {alphas}")
    discounts = [m_star["capacity-discount", d] for d in (0.9, 0.95, 0.98, 0.995)]
    if not _nondecreasing(discounts):
        problems.append(f"capacity m* not nondecreasing in the discount: {discounts}")
    for alpha, target in ((45.0, 6.798), (55.0, 10.117)):
        if abs(m_star["capacity", alpha] - target) > 0.05:
            problems.append(f"capacity m*({alpha}) = {m_star['capacity', alpha]:.4f}, expected {target} +- 0.05")
    if not mean_state["inventory", 2.0] > mean_state["inventory", 8.0] + 0.2:
        problems.append("inventory mean stock at h=2 does not exceed h=8 by 0.2")
    ranks = [mean_state["reputation", c] for c in (0.1, 0.25, 0.4, 0.55)]
    if not all(b < a for a, b in zip(ranks, ranks[1:])):
        problems.append(f"reputation mean rank does not fall with investment cost: {ranks}")
    if not m_star["ridesharing", 10.0] > m_star["ridesharing", 5.0]:
        problems.append("ridesharing M*(10) does not exceed M*(5)")
    if accepts[10.0] != (1, 0, 1) or accepts[5.0] != (1, 1, 1):
        problems.append(f"ridesharing type-2 rejection: {accepts}")
    return problems


def heatmap_properties(rows: list[dict]) -> list[str]:
    """The low (holding cost, revenue share) corner earns more than the high one."""
    low = [r["revenue"] for r in rows if r["holding_cost"] <= 2 and r["revenue_share"] <= 0.4]
    high = [r["revenue"] for r in rows if r["holding_cost"] >= 10 and r["revenue_share"] >= 0.6]
    if not low or not high or not np.mean(low) > np.mean(high):
        return [f"low-corner revenue {np.mean(low):.4g} does not exceed high-corner {np.mean(high):.4g}"]
    return []
