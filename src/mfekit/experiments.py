"""Batch comparative statics: parameter sweeps, the platform-revenue grid,
and empirical monotonicity checks.

Cells are addressed by (model name, parameter overrides) so they can be
shipped to worker processes; per-cell seeds are derived from the base seed
and the cell's grid index, which makes results order- and
parallelism-independent.
"""

from __future__ import annotations

import csv
import io as _io
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from . import models as model_registry
from .equilibrium import MfeSolution, SolverConfig, adaptive_vfi, broyden_solve, fixed_point_iteration
from .learning import LearningConfig, adaptive_policy_gradient, adaptive_q_learning, spawned_seed
from .core import PopulationState

ALGORITHMS = ("vfi", "qlearn", "pgrad", "broyden", "fixedpoint")
LEARNERS = ("qlearn", "pgrad")


@dataclass
class SweepGrid:
    """A cartesian sweep over one or more parameter paths of one model."""

    model: str
    parameters: list            # [(param name, [values...]), ...]
    algorithm: str = "vfi"
    base_params: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    learning: dict = field(default_factory=dict)
    base_seed: int = 0

    def __post_init__(self):
        if self.model not in model_registry.REGISTRY:
            raise KeyError(f"unknown model {self.model!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if not self.parameters or any(len(vals) == 0 for _, vals in self.parameters):
            raise ValueError("sweep grid must be non-empty")
        known = set(model_registry.default_params(self.model))
        for name, _ in self.parameters:
            if name not in known:
                raise KeyError(
                    f"parameter {name!r} does not resolve against {self.model!r} params "
                    f"(known: {sorted(known)})"
                )

    @property
    def shape(self) -> tuple:
        return tuple(len(vals) for _, vals in self.parameters)

    def cells(self):
        names = [name for name, _ in self.parameters]
        value_lists = [vals for _, vals in self.parameters]
        for idx in itertools.product(*(range(len(v)) for v in value_lists)):
            overrides = {name: value_lists[i][idx[i]] for i, name in enumerate(names)}
            yield idx, overrides


@dataclass
class SweepCell:
    index: tuple
    params: dict
    m_star: float = np.nan
    residual: float = np.nan
    mean_state: float = np.nan
    var_state: float = np.nan
    revenue: float = np.nan
    converged: bool = False
    seconds: float = np.nan
    error: str = ""


@dataclass
class SweepResult:
    grid: SweepGrid
    cells: list

    def column(self, name: str) -> list:
        return [getattr(c, name) for c in self.cells]

    def to_csv(self, include_seconds: bool = False) -> str:
        """One row per cell.  The seconds column is part of the schema but is
        left blank by default so that re-runs and worker counts cannot change
        the bytes; timings always travel in the run manifest."""
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        param_names = [name for name, _ in self.grid.parameters]
        writer.writerow(
            param_names
            + ["m_star", "residual", "mean_state", "var_state", "revenue", "converged", "seconds"]
        )
        for cell in self.cells:
            row = [_fmt(cell.params[name]) for name in param_names]
            row += [
                _fmt(cell.m_star),
                _fmt(cell.residual),
                _fmt(cell.mean_state),
                _fmt(cell.var_state),
                _fmt(cell.revenue),
                str(bool(cell.converged)).lower(),
                _fmt(cell.seconds) if include_seconds else "",
            ]
            writer.writerow(row)
        return buf.getvalue()


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def run_algorithm(
    model,
    algorithm: str,
    scfg: SolverConfig,
    learning_overrides: Optional[dict] = None,
    seed: int = 0,
) -> MfeSolution:
    """Run one of ALGORITHMS on a built model.

    learning_overrides and seed make the LearningConfig of the learners
    (LEARNERS); the exact solvers ignore both.
    """
    if algorithm == "vfi":
        return adaptive_vfi(model, scfg)
    if algorithm == "broyden":
        return broyden_solve(model, scfg)
    if algorithm == "fixedpoint":
        # Start from the minimal state's point mass (the same default
        # origin the samplers use); the uniform start is an equilibrium for
        # some models, which would make the baseline look spuriously good.
        return fixed_point_iteration(model, PopulationState.point_mass(model.n_states, 0), cfg=scfg)
    if algorithm in LEARNERS:
        lcfg = LearningConfig(**{**(learning_overrides or {}), "seed": seed})
        runner = adaptive_q_learning if algorithm == "qlearn" else adaptive_policy_gradient
        return runner(model, scfg, lcfg)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def solve_by_name(
    model_name: str,
    params: dict,
    algorithm: str,
    solver_overrides: Optional[dict] = None,
    learning_overrides: Optional[dict] = None,
    seed: int = 0,
) -> tuple[MfeSolution, object]:
    """Build a registered model and run the chosen solver on it."""
    model = model_registry.build_model(model_name, params)
    scfg = SolverConfig(**{**model_registry.solver_defaults(model_name), **(solver_overrides or {})})
    return run_algorithm(model, algorithm, scfg, learning_overrides, seed), model


def _run_cell(args) -> SweepCell:
    grid_dict, index, overrides = args
    grid_params = dict(grid_dict["base_params"])
    grid_params.update(overrides)
    cell = SweepCell(index=tuple(index), params=dict(overrides))
    t0 = time.perf_counter()
    try:
        seed = spawned_seed(grid_dict["base_seed"], *index)
        sol, model = solve_by_name(
            grid_dict["model"],
            grid_params,
            grid_dict["algorithm"],
            solver_overrides=grid_dict["solver"],
            learning_overrides=grid_dict["learning"],
            seed=seed,
        )
        cell.m_star = float(np.atleast_1d(sol.m_star)[0])
        cell.residual = sol.residual
        cell.mean_state = sol.mean_state(model)
        cell.var_state = sol.var_state(model)
        cell.converged = sol.converged
        if grid_dict["model"] == "inventory":
            cell.revenue = model_registry.platform_revenue(sol, model.params)
    except Exception as exc:   # keep sweeping; failures are data
        cell.error = f"{type(exc).__name__}: {exc}"
        cell.converged = False
    cell.seconds = time.perf_counter() - t0
    return cell


def comparative_statics_sweep(grid: SweepGrid, workers: int = 1) -> SweepResult:
    """Run the chosen solver on every grid cell.

    Cells are independent; per-cell failures are recorded in the row (with
    converged False and the error message) and the sweep continues.  Results
    are returned in grid order regardless of worker scheduling.
    """
    grid_dict = asdict(grid)
    jobs = [(grid_dict, idx, overrides) for idx, overrides in grid.cells()]
    if workers <= 1:
        cells = [_run_cell(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell, jobs))
    cells.sort(key=lambda c: c.index)
    return SweepResult(grid=grid, cells=cells)


def revenue_heatmap(
    h_values: Sequence[float],
    tau_values: Sequence[float],
    base: Optional[dict] = None,
    solver: Optional[dict] = None,
    base_seed: int = 0,
    workers: int = 1,
) -> SweepResult:
    """Platform revenue over the (holding cost, revenue share) grid.

    Each cell solves the inventory model to equilibrium and evaluates the
    platform's commission-plus-holding-fee revenue there.
    """
    grid = SweepGrid(
        model="inventory",
        parameters=[
            ("holding_cost", list(h_values)),
            ("revenue_share", list(tau_values)),
        ],
        algorithm="vfi",
        base_params=dict(base or {}),
        solver=dict(solver or {}),
        base_seed=base_seed,
    )
    return comparative_statics_sweep(grid, workers=workers)


def heatmap_matrix_csv(result: SweepResult) -> str:
    """Dense matrix rendering of the revenue column (rows = first parameter,
    columns = second)."""
    (row_name, row_vals), (col_name, col_vals) = result.grid.parameters
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"{row_name}\\{col_name}"] + [_fmt(v) for v in col_vals])
    by_index = {c.index: c for c in result.cells}
    for i, rv in enumerate(row_vals):
        row = [_fmt(rv)]
        for j in range(len(col_vals)):
            row.append(_fmt(by_index[(i, j)].revenue))
        writer.writerow(row)
    return buf.getvalue()


def heatmap_svg(result: SweepResult) -> str:
    """Self-contained SVG grid of the revenue column: monotone two-color ramp,
    numeric cell labels."""
    (row_name, row_vals), (col_name, col_vals) = result.grid.parameters
    by_index = {c.index: c for c in result.cells}
    values = np.array(
        [[by_index[(i, j)].revenue for j in range(len(col_vals))]
         for i in range(len(row_vals))],
        dtype=float,
    )
    finite = values[np.isfinite(values)]
    vmin = float(finite.min()) if finite.size else 0.0
    vmax = float(finite.max()) if finite.size else 1.0
    span = (vmax - vmin) or 1.0

    def color(v: float) -> str:
        if not np.isfinite(v):
            return "#cccccc"
        t = (v - vmin) / span
        # dark blue -> light yellow, monotone in revenue
        r = int(30 + t * (253 - 30))
        g = int(60 + t * (231 - 60))
        b = int(110 + t * (37 - 110))
        return f"#{r:02x}{g:02x}{b:02x}"

    margin = 70
    cell_px = 86
    width = margin + cell_px * len(col_vals) + 20
    height = margin + cell_px * len(row_vals) + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="{margin}" y="20">revenue by {row_name} (rows) x {col_name} (cols)</text>',
    ]
    for j, cv in enumerate(col_vals):
        parts.append(
            f'<text x="{margin + j * cell_px + cell_px // 2}" y="{margin - 10}" '
            f'text-anchor="middle">{_fmt(cv)}</text>'
        )
    for i, rv in enumerate(row_vals):
        parts.append(
            f'<text x="{margin - 8}" y="{margin + i * cell_px + cell_px // 2 + 4}" '
            f'text-anchor="end">{_fmt(rv)}</text>'
        )
        for j in range(len(col_vals)):
            v = values[i, j]
            x, y = margin + j * cell_px, margin + i * cell_px
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
                f'fill="{color(v)}" stroke="#ffffff"/>'
            )
            label = "nan" if not np.isfinite(v) else f"{v:.1f}"
            luminance = 0.0 if not np.isfinite(v) else (v - vmin) / span
            text_fill = "#000000" if luminance > 0.5 else "#ffffff"
            parts.append(
                f'<text x="{x + cell_px // 2}" y="{y + cell_px // 2 + 4}" '
                f'text-anchor="middle" fill="{text_fill}">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


@dataclass
class MonotonicityReport:
    passed: bool
    direction: str
    metric: str
    values: list
    violations: list   # [(index i, index i+1, value i, value i+1), ...]


def monotonicity_check(
    result: SweepResult,
    metric: str = "m_star",
    direction: str = "nondecreasing",
    tolerance: float = 1e-3,
) -> MonotonicityReport:
    """Verify weak monotonicity of a metric along a 1-D sweep.

    The tolerance band absorbs solver noise: a pair only counts as a
    violation when it moves the wrong way by more than the tolerance.
    """
    if len(result.grid.parameters) != 1:
        raise ValueError("monotonicity_check requires a 1-D sweep")
    if direction not in ("nondecreasing", "nonincreasing"):
        raise ValueError("direction must be 'nondecreasing' or 'nonincreasing'")
    values = [float(v) for v in result.column(metric)]
    sign = 1.0 if direction == "nondecreasing" else -1.0
    violations = []
    for i in range(len(values) - 1):
        if sign * (values[i + 1] - values[i]) < -tolerance:
            violations.append((i, i + 1, values[i], values[i + 1]))
    return MonotonicityReport(
        passed=not violations,
        direction=direction,
        metric=metric,
        values=values,
        violations=violations,
    )
