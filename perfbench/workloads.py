"""The benchmark's workloads: inputs, one round of timed work, and its checks.

A workload is built from the seed during set-up.  ``operations`` returns one
round of timed work as a list of calls into mfekit's public entry points.
``check_round`` gets their outputs after the timing and returns (operations
attempted, operations failed, property problems) for the round.
"""

from __future__ import annotations

import csv
import json
import shutil
from functools import partial
from pathlib import Path

import numpy as np

from mfekit import cli, experiments, io as mio, models

import checks

# Every built-in model at its defaults, then the comparative-statics points
# of the acceptance suite that differ from a default.  The tags name a solve
# in the property checks: (sweep, parameter value).
STATICS_CASES = (
    ("two-state-toy", {}, ()),
    ("inventory", {}, (("inventory", 2.0),)),
    ("capacity", {}, (("capacity", 45.0), ("capacity-discount", 0.98))),
    ("quality-ladder", {}, ()),
    ("ridesharing", {}, (("ridesharing", 10.0),)),
    ("social-learning", {}, ()),
    ("reputation", {}, (("reputation", 0.25),)),
    *(("capacity", {"alpha": a}, (("capacity", a),)) for a in (40.0, 50.0, 55.0)),
    *(("capacity", {"discount": d}, (("capacity-discount", d),)) for d in (0.9, 0.95, 0.995)),
    ("inventory", {"holding_cost": 8.0}, (("inventory", 8.0),)),
    *(("ridesharing", {"payoffs": [1.0, 1.3, r]}, (("ridesharing", r),)) for r in (5.0, 20.0)),
    *(("reputation", {"investment_cost": c}, (("reputation", c),)) for c in (0.1, 0.4, 0.55)),
    ("quality-ladder", {"theta1": 2.0}, ()),
    ("social-learning", {"gamma_prec": 15.0}, ()),
)

# The reference model-free budget: H environment steps and K Monte Carlo
# samples per outer step, dead zone 1e-3.  max_outer=1 stops after the
# first outer step (see README: a complete solve takes 9 to 25 steps,
# depending on the seed).
QLEARN_SOLVER = {"residual_tol": 1e-3, "max_outer": 1}
QLEARN_LEARNING = {"updates": 100_000, "mc_samples": 200_000}


def _solution(*args, **kwargs):
    """solve_by_name without the model it built, so the round's outputs do not
    keep models, and the table caches that hang on them, alive."""
    return experiments.solve_by_name(*args, **kwargs)[0]


class StaticsExact:
    """21 exact adaptive_vfi solves through experiments.solve_by_name."""

    def __init__(self, seed: int, out_dir: Path):
        order = np.random.default_rng(seed).permutation(len(STATICS_CASES))
        self.cases = [STATICS_CASES[i] for i in order]
        self.models = [models.build_model(name, params) for name, params, _ in self.cases]

    def operations(self):
        return [partial(_solution, name, params, "vfi") for name, params, _ in self.cases]

    def check_round(self, outputs):
        failed = 0
        m_star, mean_state, accepts = {}, {}, {}
        for (name, params, tags), model, sol in zip(self.cases, self.models, outputs):
            tol = models.solver_defaults(name)["residual_tol"]
            problems = [] if sol.converged else [f"not converged ({sol.stop_reason})"]
            problems += checks.exact_solution_problems(
                model, sol.m_star, sol.policy.actions, sol.population.probs, tol)
            failed += bool(problems)
            for tag in tags:
                m_star[tag] = sol.m_star
                mean_state[tag] = sol.mean_state(model)
                if tag[0] == "ridesharing":
                    encode = model.state_space.encode
                    accepts[tag[1]] = tuple(int(sol.policy.actions[encode((0, j))]) for j in (1, 2, 3))
        return len(outputs), failed, checks.statics_properties(m_star, mean_state, accepts)


class HeatmapSweep:
    """`mfekit sweep --config configs/heatmap.yaml --workers 1`, in-process."""

    config = Path("configs") / "heatmap.yaml"

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir / "heatmap"
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.seed = seed
        self.rounds = 0
        spec = mio.load_config(self.config)
        self.model_name = spec["model"]["name"]
        (h_name, h_values), (s_name, s_values) = spec["sweep"]["parameters"]
        self.names = (h_name, s_name)
        self.models = {(float(h), float(s)): models.build_model(self.model_name, {h_name: h, s_name: s})
                       for h in h_values for s in s_values}

    def operations(self):
        out = self.out_dir / f"round-{self.rounds}"
        self.rounds += 1
        return [partial(self._sweep, out)]

    def _sweep(self, out: Path):
        argv = ["sweep", "--config", str(self.config), "--workers", "1",
                "--seed", str(self.seed), "--out", str(out)]
        return cli.main(argv), out

    def _rows(self, out: Path) -> list[dict]:
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for key in (*self.names, "m_star", "residual", "mean_state", "revenue"):
                row[key] = float(row[key])
        return rows

    def check_round(self, outputs):
        [(exit_code, out)] = outputs
        rows = self._rows(out)
        tol = models.solver_defaults(self.model_name)["residual_tol"]
        failed = 0
        for row in rows:
            model = self.models[row[self.names[0]], row[self.names[1]]]
            row_problems = [] if row["converged"] == "true" else ["not converged"]
            row_problems += checks.sweep_row_problems(model, row["m_star"], row["mean_state"], tol)
            failed += bool(row_problems)
        problems = []
        all_converged = all(row["converged"] == "true" for row in rows)
        if exit_code != (cli.EXIT_OK if all_converged else cli.EXIT_NOT_CONVERGED):
            problems.append(f"exit code {exit_code} does not match the converged column")
        if len(rows) != len(self.models):
            problems.append(f"sweep.csv has {len(rows)} rows for {len(self.models)} cells")
        listed = set(json.loads((out / "manifest.json").read_text())["artifacts"])
        expected = {"sweep.csv", "heatmap.csv", "heatmap.svg"}
        if listed != expected or not all((out / name).stat().st_size for name in expected):
            problems.append(f"manifest lists {sorted(listed)}, expected non-empty {sorted(expected)}")
        return len(self.models), failed, problems + checks.heatmap_properties(rows)


class QLearnInventory:
    """The first outer step of the reference adaptive_q_learning solve on
    inventory.  Rounds come in pairs that share a seed, so every run also
    checks that one seed gives one result."""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.rounds = 0
        self.model = models.build_model("inventory", {})
        self.first_of_pair = None

    def operations(self):
        seed = 1000 * self.seed + self.rounds // 2
        self.rounds += 1
        return [partial(_solution, "inventory", {}, "qlearn", solver_overrides=QLEARN_SOLVER,
                        learning_overrides=QLEARN_LEARNING, seed=seed)]

    def check_round(self, outputs):
        """Rounds are checked in order; the second of a pair is compared with the first."""
        [sol] = outputs
        failed = bool(checks.model_free_step_problems(self.model, sol, QLEARN_SOLVER["residual_tol"]))
        if self.first_of_pair is None:
            self.first_of_pair = sol
            return 1, failed, []
        first, self.first_of_pair = self.first_of_pair, None
        return 1, failed, checks.same_result_problems(first, sol)


WORKLOADS = {
    "statics_exact": StaticsExact,
    "heatmap_sweep": HeatmapSweep,
    "qlearn_inventory": QLearnInventory,
}
