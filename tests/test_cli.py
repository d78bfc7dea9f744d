import json

import pytest
import yaml

from mfekit.cli import main
from mfekit.equilibrium import solution_certificate
from mfekit.io import load_solution
from mfekit.models import build_model


def run_cli(*argv) -> int:
    return main(list(argv))


def test_solve_toy_writes_solution(tmp_path):
    out = tmp_path / "run"
    code = run_cli("solve", "--model", "two-state-toy", "--algorithm", "vfi", "--out", str(out))
    assert code == 0
    record = json.loads((out / "solution.json").read_text())
    assert record["m_star"] == pytest.approx(0.5, abs=1e-8)
    for name in ("solution.json", "population.csv", "policy.csv", "trace.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == ["policy.csv", "population.csv", "solution.json", "trace.csv"]
    assert "mfekit" in manifest["versions"]


def test_solve_capacity_with_set_override(tmp_path):
    out = tmp_path / "cap"
    code = run_cli("solve", "--model", "capacity", "--set", "alpha=45", "--out", str(out))
    assert code == 0
    record = json.loads((out / "solution.json").read_text())
    assert record["m_star"] == pytest.approx(6.798, abs=0.05)
    assert record["config"]  # config echo present


def test_solve_fixedpoint_toy_exits_two_with_trace(tmp_path):
    out = tmp_path / "fp"
    code = run_cli("solve", "--model", "two-state-toy", "--algorithm", "fixedpoint", "--out", str(out))
    assert code == 2
    record = json.loads((out / "solution.json").read_text())
    assert not record["converged"]
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) > 100   # the oscillation trace is written out


def test_solve_unknown_model_exits_one(tmp_path, capsys):
    code = run_cli("solve", "--model", "warp-drive", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "warp-drive" in capsys.readouterr().err


def test_solve_unknown_param_exits_one_names_key(tmp_path, capsys):
    code = run_cli(
        "solve", "--model", "inventory", "--set", "warp_factor=9", "--out", str(tmp_path / "x")
    )
    assert code == 1
    assert "warp_factor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "algorithm, override",
    [("qlearn", "learning.rate_mode=bogus"), ("pgrad", "learning.pg_estimator=bogus")],
)
def test_solve_invalid_learning_value_exits_one(tmp_path, capsys, algorithm, override):
    code = run_cli(
        "solve", "--model", "two-state-toy", "--algorithm", algorithm,
        "--set", override, "--out", str(tmp_path / "x"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "bogus" in err


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_learning_seed_in_config_exits_one_naming_seed_flag(tmp_path, capsys, command):
    # The learners' seed comes from --seed alone; a config value would be
    # overwritten by it.
    cfg = {
        "model": {"name": "two-state-toy"},
        "learning": {"seed": 5},
        "sweep": {"algorithm": "qlearn", "parameters": [["discount", [0.9]]]},
    }
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "x"
    extra = ["--algorithm", "qlearn"] if command == "solve" else []
    assert run_cli(command, "--config", str(cfg_path), *extra, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "learning.seed" in err and "--seed" in err
    assert not out.exists()


def test_verify_round_trip(tmp_path):
    out = tmp_path / "run"
    assert run_cli("solve", "--model", "two-state-toy", "--out", str(out)) == 0
    assert run_cli("verify", str(out / "solution.json")) == 0

    # A solution.json written while SolverConfig still had require_ergodic
    # and tie_perturbation stores them; it must still load and verify.
    path = out / "solution.json"
    record = json.loads(path.read_text())
    record["config"].update(require_ergodic=False, tie_perturbation=0.0)
    path.write_text(json.dumps(record))
    assert run_cli("verify", str(path)) == 0
    assert solution_certificate(build_model("two-state-toy"), load_solution(path)).ok


def test_verify_round_trip_with_overridden_params(tmp_path):
    out = tmp_path / "cap55"
    assert run_cli("solve", "--model", "capacity", "--set", "alpha=55", "--out", str(out)) == 0
    # the manifest's config echo carries alpha=55 into verification
    assert run_cli("verify", str(out / "solution.json")) == 0


def test_verify_fails_bracket_stopped_solve_above_residual_tol(tmp_path, capsys):
    # At alpha=50 the bisection bracket closes on a jump in f with
    # |f| ~ 0.042, far above residual_tol = 1e-3; verify must not take the
    # stored residual as its own tolerance.
    out = tmp_path / "cap50"
    run_cli("solve", "--model", "capacity", "--set", "alpha=50", "--out", str(out))
    capsys.readouterr()
    assert run_cli("verify", str(out / "solution.json")) == 1
    lines = capsys.readouterr().out.splitlines()
    interaction = [line for line in lines if "interaction" in line]
    assert len(interaction) == 1
    assert interaction[0].startswith("[FAIL]")
    assert "tol 0.001" in interaction[0]


def test_verify_detects_perturbed_m_star(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("solve", "--model", "two-state-toy", "--out", str(out))
    path = out / "solution.json"
    record = json.loads(path.read_text())
    record["m_star"] += 0.1
    path.write_text(json.dumps(record))
    assert run_cli("verify", str(path)) == 1
    assert "interaction" in capsys.readouterr().out


def test_verify_detects_tampered_population(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("solve", "--model", "capacity", "--out", str(out))
    path = out / "solution.json"
    record = json.loads(path.read_text())
    probs = record["population"]
    probs[0], probs[-1] = probs[-1], probs[0]
    path.write_text(json.dumps(record))
    assert run_cli("verify", str(path)) == 1
    assert "consistency" in capsys.readouterr().out


def test_verify_reports_missing_artifact(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("solve", "--model", "two-state-toy", "--out", str(out))
    (out / "policy.csv").unlink()
    assert run_cli("verify", str(out / "solution.json")) == 1
    assert "policy.csv" in capsys.readouterr().out


def test_verify_model_mismatch_exits_one(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("solve", "--model", "two-state-toy", "--out", str(out))
    code = run_cli("verify", str(out / "solution.json"), "--model", "capacity")
    assert code == 1
    assert "mismatch" in capsys.readouterr().err


def test_solve_verify_round_trip_learned(tmp_path):
    out = tmp_path / "ql"
    code = run_cli(
        "solve", "--model", "two-state-toy", "--algorithm", "qlearn",
        "--set", "solver.residual_tol=0.01",
        "--set", "learning.updates=2000",
        "--set", "learning.mc_samples=50000",
        "--seed", "3", "--out", str(out),
    )
    assert code == 0
    assert run_cli("verify", str(out / "solution.json")) == 0


def test_sweep_from_config(tmp_path):
    cfg = {
        "model": {"name": "capacity"},
        "sweep": {"parameters": [["alpha", [45.0, 55.0]]]},
    }
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    m45 = float(lines[1].split(",")[1])
    assert m45 == pytest.approx(6.798, abs=0.05)


@pytest.mark.parametrize(
    "section, key",
    [("solver", "resdual_tol"), ("model", "warp_factor"), ("parameter", "alphaa"), ("algorithm", "vfii")],
)
def test_sweep_config_typo_exits_one_before_any_cell(tmp_path, capsys, section, key):
    cfg = {
        "model": {"name": "capacity", "params": {}},
        "solver": {},
        "sweep": {"parameters": [["alpha", [45.0, 55.0]]]},
    }
    if section == "parameter":
        cfg["sweep"]["parameters"] = [[key, [45.0]]]
    elif section == "algorithm":
        cfg["sweep"]["algorithm"] = key
    else:
        target = cfg["model"]["params"] if section == "model" else cfg["solver"]
        target[key] = 1e-3
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (out / "sweep.csv").exists()


def test_sweep_workers_bytes_identical(tmp_path):
    cfg = {
        "model": {"name": "two-state-toy"},
        "sweep": {"parameters": [["discount", [0.9, 0.92, 0.95]]]},
    }
    cfg_path = tmp_path / "sweep.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert run_cli("sweep", "--config", str(cfg_path), "--workers", "1", "--out", str(out1)) == 0
    assert run_cli("sweep", "--config", str(cfg_path), "--workers", "8", "--out", str(out8)) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out8 / "sweep.csv").read_bytes()


def test_sweep_heatmap_mode_writes_matrix_and_svg(tmp_path):
    cfg = {
        "model": {"name": "inventory"},
        "sweep": {
            "parameters": [["holding_cost", [0.0, 2.0]], ["revenue_share", [0.5, 0.7]]],
            "heatmap": True,
        },
    }
    cfg_path = tmp_path / "hm.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "hm"
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
    assert (out / "heatmap.csv").exists()
    svg = (out / "heatmap.svg").read_text()
    assert svg.count("<rect") == 4
