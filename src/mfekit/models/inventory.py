"""Dynamic inventory competition with stockout-based substitution.

Retailers hold inventory x in {0..max_inventory} and choose an order-up-to
level a in {x..max_inventory}.  Demand is the baseline shock plus the
spillover of competitors' unmet demand, rounded to the nearest integer; the
aggregate m is exactly that unmet demand, so it depends on the population's
order-up-to levels (the policy), not just on the state distribution.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..core import ActionSpace, ModelSpec, ScalarBounds, StateSpace
from ..equilibrium import MfeSolution
from ._support import DiscreteDistribution, round_half_up


@dataclass(frozen=True)
class InventoryParams:
    max_inventory: int = 9
    price: float = 30.0
    shortage_cost: float = 2.0
    holding_cost: float = 2.0
    revenue_share: float = 1.0       # platform keeps 1 - revenue_share per sale
    spillover: float = 1.0           # fraction of unmet demand that redirects
    demand_points: int = 19          # baseline demand support {0, 0.5, ..., 9}
    demand_step: float = 0.5
    demand_weight_offset: float = 5.0  # weights proportional to 1/(z + offset)
    discount: float = 0.95

    def __post_init__(self):
        if not 0.0 <= self.revenue_share <= 1.0:
            raise ValueError("revenue_share must lie in [0, 1]")
        if min(self.holding_cost, self.shortage_cost, self.price) < 0:
            raise ValueError("costs and price must be non-negative")
        if not 0.0 < self.spillover <= 1.0:
            raise ValueError("spillover must lie in (0, 1]")


def baseline_demand_distribution(p: InventoryParams) -> DiscreteDistribution:
    z = np.arange(p.demand_points)
    return DiscreteDistribution(values=z * p.demand_step, probs=1.0 / (z + p.demand_weight_offset))


def inventory_demand(zeta: float, m: float, spillover: float = 1.0) -> int:
    """Realized integer demand: baseline shock plus spilled-over unmet demand,
    rounded half-up."""
    return round_half_up(zeta + spillover * m)


def build_inventory_model(params: InventoryParams | None = None) -> ModelSpec:
    p = params or InventoryParams()
    n = p.max_inventory + 1
    states = StateSpace(labels=tuple(range(n)))
    # Order-up-to levels: can never order below current inventory.
    actions = ActionSpace(
        values=tuple(float(a) for a in range(n)),
        feasible=tuple(tuple(range(x, n)) for x in range(n)),
    )
    zeta = baseline_demand_distribution(p)
    zeta_vals = zeta.values
    zeta_probs = zeta.probs
    zeta_cdf = zeta.cdf.tolist()
    act_vals = np.array(actions.values)
    act_levels = [int(v) for v in actions.values]

    # m is frozen across the very many per-step calls a learner makes, so
    # everything that depends on m alone lives in one slot, rebuilt when m
    # changes: the realized demand per shock index (as an array for the
    # enumerated law, as ints for the sampler) and a memo of expected
    # payoffs, filled on first use by the scalar formula below.  The slot is
    # (m, demand array, demand list, memo[x][a]) and is replaced as a whole,
    # so a reader never sees a half-built one.
    slot = (None, None, None, None)

    def at(m: float):
        nonlocal slot
        current = slot
        if current[0] != m:
            D = [inventory_demand(z, m, p.spillover) for z in zeta_vals]
            current = slot = (m, np.array(D, dtype=float), D, [[None] * n for _ in range(n)])
        return current

    def expected_payoff(x, a, D):
        a_val = act_vals[a]
        revenue = p.revenue_share * p.price * float(zeta_probs @ np.minimum(a_val, D))
        production = (a_val - x) ** 2
        holding = p.holding_cost * float(zeta_probs @ np.maximum(a_val - D, 0.0))
        shortage = p.shortage_cost * float(zeta_probs @ np.maximum(D - a_val, 0.0))
        return revenue - production - holding - shortage

    def payoff(x, a, m):
        _, D, _, memo = at(float(m))
        value = memo[x][a]
        if value is None:
            value = memo[x][a] = expected_payoff(x, a, D)
        return value

    def transition_row(x, a, m):
        D = at(float(m))[1]
        row = np.zeros(n)
        nxt = np.clip(act_vals[a] - D, 0, None).astype(int)
        np.add.at(row, nxt, zeta_probs)
        return row

    def transition_sample(x, a, m, rng):
        # bisect_right on the CDF list is searchsorted(side="right"): the
        # same shock index, hence the same draw as zeta.sample.
        demand = at(float(m))[2][bisect_right(zeta_cdf, rng.random())]
        return max(act_levels[a] - demand, 0)

    def payoff_sample(x, a, m, rng):
        # The game's flow payoff is itself the expectation over the demand
        # shock; only the state transition is random.
        return payoff(x, a, m), transition_sample(x, a, m, rng)

    def interaction(probs, action_idx, m):
        # Aggregate unmet demand, per the mean-field limit of stockout
        # substitution: sum_x s(x) E[(zeta - g(x))_+].  Needs the policy.
        if action_idx is None:
            raise ValueError("inventory interaction requires the policy")
        unmet = np.array(
            [float(zeta_probs @ np.maximum(zeta_vals - act_vals[a], 0.0)) for a in action_idx]
        )
        return float(probs @ unmet)

    # Unmet demand can never exceed total baseline demand, so E[zeta] is a
    # valid (and tight) upper bound for the bisection bracket.
    bounds = ScalarBounds(0.0, zeta.mean)

    return ModelSpec(
        name="inventory",
        state_space=states,
        action_space=actions,
        discount=p.discount,
        payoff=payoff,
        transition_row=transition_row,
        transition_sample=transition_sample,
        interaction=interaction,
        bounds=bounds,
        payoff_sample=payoff_sample,
        params=p,
    )


def platform_revenue(solution: MfeSolution, params: InventoryParams) -> float:
    """Equilibrium platform revenue: commission on realized sales plus
    holding fees on leftover stock, both in expectation over the baseline
    demand and weighted by the equilibrium population."""
    p = params
    zeta = baseline_demand_distribution(p)
    m_star = float(np.atleast_1d(solution.m_star)[0])
    D = np.array([inventory_demand(z, m_star, p.spillover) for z in zeta.values], dtype=float)
    s = solution.population.probs
    levels = np.arange(p.max_inventory + 1, dtype=float)  # action value by index
    order_up = levels[solution.policy.actions]

    sales = np.array([float(zeta.probs @ np.minimum(g, D)) for g in order_up])
    leftover = np.array([float(zeta.probs @ np.maximum(g - D, 0.0)) for g in order_up])
    commission = (1.0 - p.revenue_share) * p.price * float(s @ sales)
    holding_fees = p.holding_cost * float(s @ leftover)
    return commission + holding_fees
