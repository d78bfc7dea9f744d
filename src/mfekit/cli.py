"""Command-line surface: solve a model, run a sweep, verify a solution.

Exit codes: 0 success, 1 bad input (config errors, mismatched files,
failed verification), 2 honest non-convergence (the flagged result is still
written; oscillating fixed-point iteration is expected behavior, not a tool
failure).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import __version__, io as runio, models as model_registry
from .chain import population_to_csv
from .core import validate_model
from .equilibrium import SolverConfig, solution_certificate
from .experiments import (
    ALGORITHMS,
    LEARNERS,
    SweepGrid,
    comparative_statics_sweep,
    heatmap_matrix_csv,
    heatmap_svg,
    run_algorithm,
)
from .learning import LearningConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


class ConfigError(Exception):
    pass


def _parse_set(values: list[str]) -> list[tuple[str, object]]:
    out = []
    for item in values or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        out.append((key.strip(), yaml.safe_load(raw)))
    return out


def _assemble_config(args, base: Optional[dict] = None) -> dict:
    """Merge a base config (by default the --config file), the --model
    shortcut and --set overrides."""
    config: dict = {"model": {"name": None, "params": {}}, "solver": {}, "learning": {}, "sweep": {}}
    if base is None and args.config:
        base = runio.load_config(args.config)
    for key, value in (base or {}).items():
        if key not in config:
            raise ConfigError(f"unknown config section {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be a mapping")
        config[key].update(value)
    if getattr(args, "model", None):
        config["model"]["name"] = args.model
    for key, value in _parse_set(getattr(args, "set", None) or []):
        if "." not in key:
            key = f"model.params.{key}"
        runio.set_by_path(config, key, value)
    return config


def _build_model(config: dict):
    name = config["model"].get("name")
    if not name:
        raise ConfigError("no model selected: pass --model or set model.name in the config")
    try:
        return model_registry.build_model(name, config["model"].get("params") or {})
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameters for model {name!r}: {exc}") from exc


def _model_from_config(config: dict):
    model = _build_model(config)
    violations = validate_model(model)
    if violations:
        raise ConfigError(f"model {model.name!r} failed validation: {violations[:5]}")
    return model


def _solver_config(config: dict, model_name: str) -> SolverConfig:
    merged = {**model_registry.solver_defaults(model_name), **(config.get("solver") or {})}
    unknown = set(merged) - set(SolverConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown solver key(s): {sorted(unknown)}")
    try:
        return SolverConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver config: {exc}") from exc


def _check_learning(config: dict) -> None:
    learning = config.get("learning") or {}
    unknown = set(learning) - set(LearningConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown learning key(s): {sorted(unknown)}")
    if "seed" in learning:
        raise ConfigError("learning.seed is set by --seed, not in the config")
    try:
        LearningConfig(**learning)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid learning config: {exc}") from exc


def cmd_solve(args) -> int:
    config = _assemble_config(args)
    model = _model_from_config(config)
    scfg = _solver_config(config, model.name)
    algorithm = args.algorithm
    learning = config.get("learning") or {}
    if algorithm in LEARNERS:
        _check_learning(config)

    t0 = time.perf_counter()
    sol = run_algorithm(model, algorithm, scfg, learning, seed=args.seed)
    elapsed = time.perf_counter() - t0

    out_dir = Path(args.out)
    manifest = runio.RunManifest(
        command="solve",
        config_path=str(args.config or ""),
        config=config,
        seed=args.seed,
        out_dir=str(out_dir),
        timings={"solve_seconds": elapsed},
    )
    runio.write_artifact(out_dir, "solution.json", runio.solution_to_json(sol, model), manifest)
    if sol.population is not None:
        runio.write_artifact(
            out_dir, "population.csv", population_to_csv(model.state_space, sol.population.probs), manifest
        )
    if sol.policy is not None:
        runio.write_artifact(out_dir, "policy.csv", runio.policy_to_csv(model, sol.policy), manifest)
    runio.write_artifact(out_dir, "trace.csv", runio.solver_trace_to_csv(sol.trace), manifest)
    (out_dir / "manifest.json").write_text(manifest.to_json())

    status = "converged" if sol.converged else "non-converged"
    m_repr = format(float(np.atleast_1d(sol.m_star)[0]), ".6g") if sol.m_star is not None else "?"
    print(f"{model.name}: {algorithm} {status} m*={m_repr} residual={sol.residual:.3e} -> {out_dir}")
    return EXIT_OK if sol.converged else EXIT_NOT_CONVERGED


def cmd_sweep(args) -> int:
    config = _assemble_config(args)
    sweep_cfg = config.get("sweep") or {}
    if not sweep_cfg.get("parameters"):
        raise ConfigError("sweep config needs sweep.parameters: [[name, [values...]], ...]")
    # Every cell shares these settings; a bad one would fail each cell the
    # same way, so it is a config error before any cell runs.
    model_name = _build_model(config).name
    _solver_config(config, model_name)
    algorithm = sweep_cfg.get("algorithm", "vfi")
    if algorithm in LEARNERS:
        _check_learning(config)

    parameters = [(str(name), list(values)) for name, values in sweep_cfg["parameters"]]
    try:
        grid = SweepGrid(
            model=model_name,
            parameters=parameters,
            algorithm=algorithm,
            base_params=config["model"].get("params") or {},
            solver=config.get("solver") or {},
            learning=config.get("learning") or {},
            base_seed=args.seed if args.seed is not None else int(sweep_cfg.get("base_seed", 0)),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid sweep grid: {exc.args[0]}") from exc
    t0 = time.perf_counter()
    result = comparative_statics_sweep(grid, workers=args.workers)
    elapsed = time.perf_counter() - t0

    out_dir = Path(args.out)
    manifest = runio.RunManifest(
        command="sweep",
        config_path=str(args.config or ""),
        config=config,
        seed=grid.base_seed,
        out_dir=str(out_dir),
        timings={
            "sweep_seconds": elapsed,
            "cells": {str(c.index): c.seconds for c in result.cells},
        },
    )
    runio.write_artifact(out_dir, "sweep.csv", result.to_csv(include_seconds=args.timings), manifest)
    if sweep_cfg.get("heatmap") and len(grid.parameters) == 2:
        runio.write_artifact(out_dir, "heatmap.csv", heatmap_matrix_csv(result), manifest)
        runio.write_artifact(out_dir, "heatmap.svg", heatmap_svg(result), manifest)
    (out_dir / "manifest.json").write_text(manifest.to_json())

    failures = [c for c in result.cells if not c.converged]
    print(f"{model_name}: swept {len(result.cells)} cell(s), {len(failures)} failure(s) -> {out_dir}")
    return EXIT_OK if not failures else EXIT_NOT_CONVERGED


def cmd_verify(args) -> int:
    solution_path = Path(args.solution)
    if not solution_path.exists():
        print(f"missing solution file: {solution_path}", file=sys.stderr)
        return EXIT_ERROR

    checks: list[tuple[str, bool, str]] = []

    manifest = None
    manifest_path = solution_path.parent / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        missing = [
            name for name in manifest.get("artifacts", [])
            if not (solution_path.parent / name).exists()
        ]
        checks.append(("manifest", not missing, f"missing artifact(s): {missing}" if missing else "all artifacts present"))

    # The manifest's config echo reproduces the run; --model/--set still
    # apply on top for deliberate cross-checks.
    config = _assemble_config(args, manifest["config"] if manifest is not None and not args.config else None)
    sol = runio.load_solution(solution_path)

    model_name = config["model"].get("name") or sol.model_name
    if sol.model_name and model_name != sol.model_name:
        print(f"model mismatch: solution is for {sol.model_name!r}, config names {model_name!r}", file=sys.stderr)
        return EXIT_ERROR
    config["model"]["name"] = model_name
    model = _model_from_config(config)
    if sol.policy is None or sol.population is None:
        print("solution record has no policy/population to verify", file=sys.stderr)
        return EXIT_ERROR
    if len(sol.population.probs) != model.n_states:
        print("state-space mismatch between solution and model config", file=sys.stderr)
        return EXIT_ERROR

    report = solution_certificate(model, sol, cfg=_solver_config(config, model.name))
    checks += [(name, passed, detail) for name, (passed, detail) in report.checks.items()]

    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return EXIT_OK if all_ok else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfekit",
        description="Compute and learn stationary mean field equilibria with scalar interactions.",
    )
    parser.add_argument("--version", action="version", version=f"mfekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file (sections: model, solver, learning, sweep)")
    common.add_argument("--model", help=f"built-in model name ({', '.join(model_registry.model_names())})")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="dotted-path override, e.g. alpha=55 or solver.residual_tol=1e-4")

    p_solve = sub.add_parser("solve", parents=[common], help="solve one model to equilibrium")
    p_solve.add_argument("--algorithm", choices=ALGORITHMS, default="vfi")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", default="out", help="output directory")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a comparative-statics sweep")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, default=None, help="base seed (cells derive their own)")
    p_sweep.add_argument("--timings", action="store_true", help="fill the seconds column in sweep.csv")
    p_sweep.add_argument("--out", default="out", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", parents=[common], help="re-check a written solution")
    p_verify.add_argument("solution", help="path to solution.json")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
