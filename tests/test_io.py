import json

import numpy as np
import pytest
import yaml

from mfekit import io as runio
from mfekit import models
from mfekit.equilibrium import SolverConfig, adaptive_vfi
from mfekit.learning import LearningConfig, q_learning, projected_policy_gradient


def test_solution_json_round_trip(toy_model):
    sol = adaptive_vfi(toy_model, SolverConfig(**models.solver_defaults("two-state-toy")))
    text = runio.solution_to_json(sol, toy_model)
    record = json.loads(text)
    assert record["model"] == "two-state-toy"
    assert record["policy"] == {"1": 0.0, "2": 0.0}
    back = runio.solution_from_dict(record)
    assert back.m_star == pytest.approx(sol.m_star)
    assert np.allclose(back.population.probs, sol.population.probs)
    assert back.policy.actions.tolist() == sol.policy.actions.tolist()
    assert back.converged == sol.converged


def test_solution_json_floats_have_12_significant_digits(capacity_model):
    sol = adaptive_vfi(capacity_model, SolverConfig(**models.solver_defaults("capacity")))
    record = json.loads(runio.solution_to_json(sol, capacity_model))
    for p in record["population"]:
        assert p == float(format(p, ".12g"))


def test_policy_csv(toy_model):
    sol = adaptive_vfi(toy_model, SolverConfig(**models.solver_defaults("two-state-toy")))
    lines = runio.policy_to_csv(toy_model, sol.policy).splitlines()
    assert lines[0] == "state_label,action_value"
    assert lines[1] == "1,0"


def test_qtable_csv(inventory_model):
    q = q_learning(inventory_model, 0.5, LearningConfig(updates=500, seed=0))
    lines = runio.qtable_to_csv(inventory_model, q).splitlines()
    assert lines[0] == "state_label,action_value,q"
    # one row per feasible pair: sum_x |feasible(x)| = 10 + 9 + ... + 1 = 55
    assert len(lines) == 56


def test_direct_policy_csv(toy_model):
    pol = projected_policy_gradient(toy_model, 0.5, LearningConfig(pg_steps=2, pg_rate=0.1))
    lines = runio.direct_policy_to_csv(toy_model, pol).splitlines()
    assert lines[0] == "state_label,action_value,prob"
    assert lines[1] == "1,0,1"


def test_learning_trace_csv(inventory_model):
    q = q_learning(inventory_model, 0.5, LearningConfig(updates=300, episode_length=100, seed=0))
    lines = runio.learning_trace_to_csv(q.trace).splitlines()
    assert lines[0] == "episode,mean_reward,epsilon"
    assert len(lines) == 4   # three completed episodes


def test_config_loading_and_overrides(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump({"model": {"name": "capacity", "params": {"alpha": 50.0}}}))
    config = runio.load_config(cfg_path)
    assert config["model"]["params"]["alpha"] == 50.0
    runio.set_by_path(config, "model.params.alpha", 55.0)
    runio.set_by_path(config, "solver.residual_tol", 1e-4)
    assert config["model"]["params"]["alpha"] == 55.0
    assert config["solver"]["residual_tol"] == 1e-4


def test_config_must_be_mapping(tmp_path):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError, match="mapping"):
        runio.load_config(cfg_path)


def test_manifest_lists_artifacts(tmp_path):
    manifest = runio.RunManifest(
        command="solve", config_path="", config={}, seed=1, out_dir=str(tmp_path)
    )
    runio.write_artifact(tmp_path, "a.csv", "x\n", manifest)
    runio.write_artifact(tmp_path, "b.csv", "y\n", manifest)
    record = json.loads(manifest.to_json())
    assert record["artifacts"] == ["a.csv", "b.csv"]
    assert record["versions"]["mfekit"]
