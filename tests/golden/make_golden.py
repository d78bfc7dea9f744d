"""Rebuild the golden outputs of the model-free and the exact path.

model_free.json pins the exact bits of what the stochastic code returns for
fixed seeds and small budgets: Q-learning tables, visit counts and learning
curves, one short adaptive Q-learning solve, Monte Carlo populations, and the
inventory model's enumerated tables (which share the simulator's per-m
tabulation).  exact.json pins the default adaptive_vfi solve of every
built-in model: m*, the bisection trace, the stop, the policy and the
population.  Floats are stored with float.hex, so a comparison is bitwise.

A change that is meant to keep the outputs must leave both files untouched;
only a change that alters them on purpose regenerates the file it alters,
e.g. for the random streams:

    PYTHONPATH=src python tests/golden/make_golden.py --force model_free

Without --force the script refuses to overwrite an existing file; --print
writes the named files' contents to stdout instead, which is how
tests/test_golden.py recomputes them.

The last bit of a LAPACK solve moves with the BLAS thread count, so the
script pins BLAS to one thread before numpy loads; it must run as a fresh
process for the pin to hold.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

GOLDEN_DIR = Path(__file__).parent


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


def compute_exact_cases() -> dict:
    """The default adaptive_vfi solve of every built-in model."""
    from mfekit import models
    from mfekit.experiments import solve_by_name

    cases = {}
    for name in models.model_names():
        sol, _ = solve_by_name(name, {}, "vfi")
        cases[name] = {
            "trace": [{key: (val.hex() if isinstance(val, float) else val)
                       for key, val in row.items()} for row in sol.trace],
            "m_star": float(sol.m_star).hex(),
            "converged": sol.converged,
            "stop_reason": sol.stop_reason,
            "policy": sol.policy.actions.tolist(),
            "population": hexes(sol.population.probs),
        }
    return cases


GOLDEN_FILES = {"model_free": compute_cases, "exact": compute_exact_cases}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def dumps(cases: dict) -> str:
    """One case per line, keys sorted, so a diff names the cases that moved."""
    lines = [f"{json.dumps(name)}: {json.dumps(cases[name], sort_keys=True)}"
             for name in sorted(cases)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true", help="overwrite existing golden files")
    parser.add_argument("--print", action="store_true", dest="to_stdout",
                        help="write the contents to stdout, as one JSON object, not to the files")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"golden files to write, of {sorted(GOLDEN_FILES)} (default: all)")
    args = parser.parse_args(argv)
    names = args.names or sorted(GOLDEN_FILES)
    unknown = sorted(set(names) - set(GOLDEN_FILES))
    if unknown:
        parser.error(f"unknown golden file(s) {unknown}; choose from {sorted(GOLDEN_FILES)}")
    if args.to_stdout:
        print(json.dumps({name: json.loads(dumps(GOLDEN_FILES[name]())) for name in names}))
        return 0
    existing = [golden_path(name) for name in names if golden_path(name).exists()]
    if existing and not args.force:
        print(f"{', '.join(map(str, existing))} exist(s); pass --force to regenerate on purpose",
              file=sys.stderr)
        return 1
    for name in names:
        golden_path(name).write_text(dumps(GOLDEN_FILES[name]()))
        print(f"wrote {golden_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
