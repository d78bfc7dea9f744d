"""Tests of the benchmark's oracle, checks and tracer.

    python3 -m pytest -q perfbench
"""

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from mfekit import experiments, models  # noqa: E402
from mfekit.core import ActionSpace, ModelSpec, ScalarBounds, StateSpace  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import QLEARN_SOLVER  # noqa: E402


def random_model(rng, n_states, n_actions, discount):
    """Random payoffs and rows; the state's index is its own label."""
    payoffs = rng.normal(size=(n_states, n_actions))
    rows = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    return ModelSpec(
        name="random",
        state_space=StateSpace(labels=tuple(range(n_states))),
        action_space=ActionSpace.uniform(tuple(float(a) for a in range(n_actions)), n_states),
        discount=discount,
        payoff=lambda x, a, m: float(payoffs[x, a]),
        transition_row=lambda x, a, m: rows[x, a].copy(),
        transition_sample=lambda x, a, m, rng_: 0,
        interaction=lambda probs, actions, m: float(np.arange(n_states) @ probs / (n_states - 1)),
        bounds=ScalarBounds(0.0, 1.0),
    )


# -- oracle ---------------------------------------------------------------------

def test_oracle_reaches_half_on_two_state_toy():
    ev = oracle.bisect(models.build_model("two-state-toy"))
    assert abs(ev.m - 0.5) <= 1e-9
    assert abs(ev.f) <= 1e-8


@pytest.mark.parametrize("seed", range(12))
def test_oracle_policy_is_best_of_all_deterministic_policies(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    model = random_model(rng, n, k, discount=float(rng.uniform(0.5, 0.95)))
    law = oracle.Law.at(model, 0.5)
    values = {g: law.evaluate(np.array(g)) for g in itertools.product(range(k), repeat=n)}
    best = max(values, key=lambda g: values[g].sum())
    assert all(np.all(values[best] >= v - 1e-12) for v in values.values())   # dominates every policy
    assert tuple(law.optimal_policy()) == best


def test_oracle_invariant_distribution_matches_power_iteration():
    rng = np.random.default_rng(3)
    P = rng.dirichlet(np.ones(6), size=6)
    s = oracle.invariant_distribution(P)
    assert np.allclose(s, np.linalg.matrix_power(P, 500)[0], atol=1e-12)


# -- checks ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def inventory_solution():
    sol, model = experiments.solve_by_name("inventory", {}, "vfi")
    return model, sol, models.solver_defaults("inventory")["residual_tol"]


def test_exact_check_confirms_a_good_solve(inventory_solution):
    model, sol, tol = inventory_solution
    assert checks.exact_solution_problems(model, sol.m_star, sol.policy.actions, sol.population.probs, tol) == []


def test_exact_check_rejects_perturbed_m_star(inventory_solution):
    model, sol, tol = inventory_solution
    problems = checks.exact_solution_problems(model, sol.m_star + 0.05, sol.policy.actions, sol.population.probs, tol)
    assert any("residual_tol" in p for p in problems)


def test_exact_check_rejects_perturbed_population(inventory_solution):
    model, sol, tol = inventory_solution
    s = sol.population.probs.copy()
    s[np.argmax(s)] -= 1e-6
    s[np.argmin(s)] += 1e-6
    problems = checks.exact_solution_problems(model, sol.m_star, sol.policy.actions, s, tol)
    assert any("drifts" in p for p in problems)


def test_exact_check_rejects_perturbed_policy(inventory_solution):
    model, sol, tol = inventory_solution
    actions = sol.policy.actions.copy()
    actions[0] = max(model.action_space.feasible_at(0))
    problems = checks.exact_solution_problems(model, sol.m_star, actions, sol.population.probs, tol)
    assert any("improves" in p for p in problems)


def test_sweep_row_check(inventory_solution):
    model, sol, tol = inventory_solution
    mean = sol.mean_state(model)
    assert checks.sweep_row_problems(model, sol.m_star, mean, tol) == []
    assert checks.sweep_row_problems(model, sol.m_star + 0.05, mean, tol) != []
    assert checks.sweep_row_problems(model, sol.m_star, mean + 1e-6, tol) != []


@pytest.fixture(scope="module")
def model_free_step():
    sol, model = experiments.solve_by_name(
        "inventory", {}, "qlearn", solver_overrides=QLEARN_SOLVER,
        learning_overrides={"updates": 2_000, "mc_samples": 200_000}, seed=7)
    return model, sol


def test_model_free_check_confirms_a_good_step(model_free_step):
    model, sol = model_free_step
    assert checks.model_free_step_problems(model, sol, QLEARN_SOLVER["residual_tol"]) == []


def test_model_free_check_rejects_perturbations(model_free_step):
    model, sol = model_free_step
    tol = QLEARN_SOLVER["residual_tol"]
    s = sol.population.probs.copy()
    s[np.argmax(s)] -= 0.05
    s[np.argmin(s)] += 0.05
    population = replace(sol.population, probs=s)
    assert any("total variation" in p for p in
               checks.model_free_step_problems(model, replace(sol, population=population), tol))
    assert any("reported residual" in p for p in
               checks.model_free_step_problems(model, replace(sol, m_star=sol.m_star + 0.05), tol))
    assert any("converged" in p for p in
               checks.model_free_step_problems(model, replace(sol, converged=True), tol))
    assert checks.same_result_problems(sol, sol) == []
    assert checks.same_result_problems(sol, replace(sol, m_star=sol.m_star + 1e-12)) != []


STATICS = {
    "m_star": {("capacity", 40.0): 4.58, ("capacity", 45.0): 6.80, ("capacity", 50.0): 8.73,
               ("capacity", 55.0): 10.12, ("capacity-discount", 0.9): 0.72,
               ("capacity-discount", 0.95): 1.19, ("capacity-discount", 0.98): 6.80,
               ("capacity-discount", 0.995): 13.09, ("ridesharing", 5.0): 0.5,
               ("ridesharing", 10.0): 0.75},
    "mean_state": {("inventory", 2.0): 2.0, ("inventory", 8.0): 1.5, ("reputation", 0.1): 3.0,
                   ("reputation", 0.25): 2.5, ("reputation", 0.4): 2.0, ("reputation", 0.55): 1.5},
    "accepts": {10.0: (1, 0, 1), 5.0: (1, 1, 1)},
}


@pytest.mark.parametrize("field, key, value", [
    ("m_star", ("capacity", 45.0), 6.90),
    ("m_star", ("capacity", 55.0), 10.0),
    ("m_star", ("capacity", 50.0), 4.0),
    ("m_star", ("capacity-discount", 0.995), 6.0),
    ("m_star", ("ridesharing", 5.0), 0.8),
    ("mean_state", ("inventory", 8.0), 1.9),
    ("mean_state", ("reputation", 0.4), 2.5),
    ("accepts", 5.0, (1, 0, 1)),
])
def test_statics_properties_reject_perturbed_values(field, key, value):
    assert checks.statics_properties(**STATICS) == []
    perturbed = {name: dict(values) for name, values in STATICS.items()}
    perturbed[field][key] = value
    assert checks.statics_properties(**perturbed) != []


def test_heatmap_property():
    rows = [{"holding_cost": 0.0, "revenue_share": 0.3, "revenue": 60.0},
            {"holding_cost": 12.0, "revenue_share": 0.7, "revenue": 30.0}]
    assert checks.heatmap_properties(rows) == []
    rows[0]["revenue"] = 20.0
    assert checks.heatmap_properties(rows) != []


# -- tracer ---------------------------------------------------------------------

def test_tracer_counts_residual_evaluations_and_restores_functions():
    from mfekit import equilibrium

    original = equilibrium.residual
    with Tracer() as tracer:
        sol, _ = experiments.solve_by_name("two-state-toy", {}, "vfi")
    assert equilibrium.residual is original
    assert tracer.calls()["equilibrium.residual"] == len(sol.trace)
    self_s = tracer.self_times()
    total = sum(end - start for name, start, end, parent in tracer.spans if parent < 0)
    assert sum(self_s.values()) == pytest.approx(total, rel=1e-9)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == ["statics_exact", "heatmap_sweep", "qlearn_inventory"]
