"""Seller reputation: ratings average into a gridded rank, reviews accumulate.

State (rank, review count).  Each period the seller invests a in {0, 1, 2};
the incoming review k(a) * zeta = a * zeta (zeta uniform on five levels) is
averaged into the running rank with weight 1/(1 + reviews) and snapped to the
half-point rank grid; the review count increments up to its cap.  Profit is
the seller's visibility weight (1 + 3*rank + reviews) relative to the market
aggregate of the same weight, minus linear investment cost.

Sellers depart with probability 1 - discount after each review and are
immediately replaced by a fresh (0, 0) entrant.  The individual problem
absorbs departure into the discount factor, but the population dynamics must
carry the regeneration explicitly: without it, every rank at the review cap
is frozen (a review weighted by 1/21 can never move the gridded average) and
the chain would have one absorbing state per rank instead of a unique
invariant distribution.  Hence the regeneration declared on the ModelSpec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ActionSpace, ModelSpec, ScalarBounds, StateSpace
from ._support import DiscreteDistribution, snap_to_grid


@dataclass(frozen=True)
class ReputationParams:
    rank_max: float = 5.0
    rank_step: float = 0.5
    review_cap: int = 20
    investment_levels: int = 3
    investment_cost: float = 0.25
    rank_coef: float = 3.0
    review_coef: float = 1.0
    review_shocks: tuple = (1.0, 1.5, 2.0, 2.25, 2.5)
    discount: float = 0.95

    def __post_init__(self):
        if self.investment_cost < 0:
            raise ValueError("investment_cost must be non-negative")


def build_reputation_model(params: ReputationParams | None = None) -> ModelSpec:
    p = params or ReputationParams()
    n_ranks = int(round(p.rank_max / p.rank_step)) + 1
    ranks = tuple(round(i * p.rank_step, 10) for i in range(n_ranks))
    reviews = tuple(range(p.review_cap + 1))
    states = StateSpace.product(ranks, reviews)
    n = states.n
    actions = ActionSpace.uniform(
        values=tuple(float(a) for a in range(p.investment_levels)), n_states=n
    )
    zeta = DiscreteDistribution(p.review_shocks, np.ones(len(p.review_shocks)))

    def visibility(rank: float, count: int) -> float:
        return 1.0 + p.rank_coef * rank + p.review_coef * count

    weights = np.array([visibility(r, c) for (r, c) in states.labels])

    def next_state(rank: float, count: int, a: int, shock: float) -> int:
        raw = (count / (1.0 + count)) * rank + a * shock / (1.0 + count)
        new_rank_idx = snap_to_grid(raw, p.rank_step, n_ranks)
        new_count = min(count + 1, p.review_cap)
        return states.encode((ranks[new_rank_idx], new_count))

    def payoff(x, a, m):
        rank, count = states.decode(x)
        return visibility(rank, count) / float(m) - p.investment_cost * a

    def transition_row(x, a, m):
        rank, count = states.decode(x)
        row = np.zeros(n)
        for shock, q in zip(zeta.values, zeta.probs):
            row[next_state(rank, count, a, shock)] += q
        return row

    def transition_sample(x, a, m, rng):
        rank, count = states.decode(x)
        return next_state(rank, count, a, zeta.sample(rng))

    def payoff_sample(x, a, m, rng):
        return payoff(x, a, m), transition_sample(x, a, m, rng)

    def interaction(probs, action_idx, m):
        return float(weights @ probs)   # market-wide visibility aggregate

    bounds = ScalarBounds(float(weights.min()), float(weights.max()))
    return ModelSpec(
        name="reputation",
        state_space=states,
        action_space=actions,
        discount=p.discount,
        payoff=payoff,
        transition_row=transition_row,
        transition_sample=transition_sample,
        interaction=interaction,
        bounds=bounds,
        payoff_sample=payoff_sample,
        regeneration=(p.discount, states.encode((ranks[0], 0))),
        params=p,
    )
