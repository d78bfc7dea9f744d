"""Rebuild the fixed-seed golden outputs of the model-free path.

The golden file pins the exact bits of what the stochastic code returns for
fixed seeds and small budgets: Q-learning tables, visit counts and learning
curves, one short adaptive Q-learning solve, Monte Carlo populations, and the
inventory model's enumerated tables (which share the simulator's per-m
tabulation).  Floats are stored with float.hex, so a comparison is bitwise.

A change that is meant to keep the random streams must leave this file
untouched; only a change that alters them on purpose regenerates it:

    PYTHONPATH=src python tests/golden/make_golden.py --force

Without --force the script refuses to overwrite an existing file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("model_free.json")


def hexes(values) -> list:
    """Flat list of float.hex strings (NaN stays 'nan')."""
    return [float(v).hex() for v in np.ravel(np.asarray(values, dtype=float))]


def _qtable_case(q) -> dict:
    return {
        "q": hexes(q.q),
        "update_counts": np.ravel(q.update_counts).tolist(),
        "episodes": q.episodes,
        "trace": [[int(ep), float(r).hex(), float(eps).hex()] for ep, r, eps in q.trace],
    }


def compute_cases() -> dict:
    """Run every pinned case with the mfekit on sys.path."""
    from mfekit import models
    from mfekit.chain import monte_carlo_stationary
    from mfekit.core import StationaryPolicy
    from mfekit.equilibrium import SolverConfig
    from mfekit.learning import LearningConfig, adaptive_q_learning, q_learning

    inventory = models.build_inventory_model()
    social = models.build_social_learning_model()
    reputation = models.build_reputation_model()
    toy = models.build_two_state_toy()
    cases = {}

    cases["q_learning_inventory_constant"] = _qtable_case(
        q_learning(inventory, 0.7, LearningConfig(updates=20_000, seed=3))
    )
    cases["q_learning_social_robbins_monro_tail"] = _qtable_case(
        q_learning(social, 0.4, LearningConfig(
            updates=8_000, seed=5, rate_mode="robbins_monro",
            rate_c=1.0, rate_exponent=0.7, tail_average=0.5,
        ))
    )

    sol = adaptive_q_learning(
        toy,
        SolverConfig(residual_tol=1e-3, max_outer=6),
        LearningConfig(updates=1_000, mc_samples=5_000, seed=9),
    )
    cases["adaptive_q_learning_toy"] = {
        "trace": [{key: (val.hex() if isinstance(val, float) else val)
                   for key, val in row.items()} for row in sol.trace],
        "m_star": float(sol.m_star).hex(),
        "population": hexes(sol.population.probs),
        "policy": sol.policy.actions.tolist(),
    }

    order_up_to_4 = StationaryPolicy([max(x, 4) for x in range(inventory.n_states)], 1.3)
    cases["monte_carlo_inventory"] = {
        "population": hexes(
            monte_carlo_stationary(inventory, order_up_to_4, 1.3, K=50_000, seed=11).probs
        ),
    }
    rep_m = reputation.bounds.midpoint()
    mixed = StationaryPolicy([x % 3 for x in range(reputation.n_states)], rep_m)
    cases["monte_carlo_reputation"] = {
        "population": hexes(
            monte_carlo_stationary(reputation, mixed, rep_m, K=50_000, seed=12).probs
        ),
    }

    # Exact-path numbers of inventory at rounding ties (m = 0, 1) and off them.
    n = inventory.n_states
    tables = {}
    for m in (0.0, 0.7, 1.0):
        pairs = [(x, a) for x in range(n) for a in inventory.action_space.feasible_at(x)]
        tables[float(m).hex()] = {
            "payoff": hexes([inventory.payoff(x, a, m) for x, a in pairs]),
            "transition_row": hexes([inventory.transition_row(x, a, m) for x, a in pairs]),
        }
    cases["inventory_tables"] = tables
    return cases


def dumps(cases: dict) -> str:
    """One case per line, keys sorted, so a diff names the cases that moved."""
    lines = [f"{json.dumps(name)}: {json.dumps(cases[name], sort_keys=True)}"
             for name in sorted(cases)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true", help="overwrite an existing golden file")
    args = parser.parse_args(argv)
    if GOLDEN_PATH.exists() and not args.force:
        print(f"{GOLDEN_PATH} exists; pass --force to regenerate it on purpose", file=sys.stderr)
        return 1
    GOLDEN_PATH.write_text(dumps(compute_cases()))
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
