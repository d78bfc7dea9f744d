import numpy as np
import pytest

from mfekit import models
from mfekit.equilibrium import SolverConfig, adaptive_vfi
from mfekit.experiments import (
    SweepGrid,
    comparative_statics_sweep,
    heatmap_matrix_csv,
    heatmap_svg,
    monotonicity_check,
    revenue_heatmap,
)
from mfekit.learning import spawned_seed


def test_cell_seed_stable_and_order_free():
    assert spawned_seed(7, 0, 1) == spawned_seed(7, 0, 1)
    assert spawned_seed(7, 0, 1) != spawned_seed(7, 1, 0)
    assert spawned_seed(7, 0, 1) != spawned_seed(8, 0, 1)


def test_grid_validates_parameter_paths():
    with pytest.raises(KeyError, match="resolve"):
        SweepGrid(model="capacity", parameters=[("not_a_knob", [1, 2])])
    with pytest.raises(ValueError):
        SweepGrid(model="capacity", parameters=[("alpha", [])])
    with pytest.raises(KeyError):
        SweepGrid(model="martian", parameters=[("alpha", [1])])


def test_singleton_sweep_equals_direct_solve(toy_model):
    grid = SweepGrid(model="two-state-toy", parameters=[("discount", [0.95])])
    result = comparative_statics_sweep(grid)
    assert len(result.cells) == 1
    direct = adaptive_vfi(toy_model, SolverConfig(**models.solver_defaults("two-state-toy")))
    assert result.cells[0].m_star == pytest.approx(direct.m_star)
    assert result.cells[0].converged


def test_capacity_sweep_reproduces_reference_values():
    grid = SweepGrid(model="capacity", parameters=[("alpha", [45.0, 55.0])])
    result = comparative_statics_sweep(grid)
    m45, m55 = result.column("m_star")
    assert m45 == pytest.approx(6.798, abs=0.05)
    assert m55 == pytest.approx(10.117, abs=0.05)


def test_inventory_holding_cost_statics():
    grid = SweepGrid(model="inventory", parameters=[("holding_cost", [2.0, 8.0])])
    result = comparative_statics_sweep(grid)
    mean2, mean8 = result.column("mean_state")
    assert mean2 > mean8


def test_failed_cells_recorded_not_raised():
    grid = SweepGrid(
        model="quality-ladder",
        parameters=[("theta1", [1.0, -3.0])],   # second cell is invalid
    )
    result = comparative_statics_sweep(grid)
    assert result.cells[0].converged
    assert not result.cells[1].converged
    assert "theta1" in result.cells[1].error or "positive" in result.cells[1].error
    csv_text = result.to_csv()
    assert csv_text.count("\n") == 3   # header + 2 rows


def test_sweep_row_order_matches_grid_and_values_are_order_free():
    g1 = SweepGrid(model="two-state-toy", parameters=[("discount", [0.9, 0.95])], base_seed=3)
    g2 = SweepGrid(model="two-state-toy", parameters=[("discount", [0.95, 0.9])], base_seed=3)
    r1 = comparative_statics_sweep(g1)
    r2 = comparative_statics_sweep(g2)
    by_param_1 = {c.params["discount"]: c.m_star for c in r1.cells}
    by_param_2 = {c.params["discount"]: c.m_star for c in r2.cells}
    # permuting the grid permutes rows but the per-cell results are keyed to
    # the cell, not to execution order... except the cell seed is positional,
    # so compare the deterministic solver outputs.
    assert by_param_1 == by_param_2


def test_sweep_rerun_bit_identical():
    grid = SweepGrid(model="inventory", parameters=[("holding_cost", [2.0, 5.0])], base_seed=11)
    a = comparative_statics_sweep(grid).to_csv()
    b = comparative_statics_sweep(grid).to_csv()
    assert a == b


def test_sweep_workers_do_not_change_bytes():
    grid = SweepGrid(model="two-state-toy", parameters=[("discount", [0.9, 0.92, 0.95])], base_seed=5)
    serial = comparative_statics_sweep(grid, workers=1).to_csv()
    parallel = comparative_statics_sweep(grid, workers=3).to_csv()
    assert serial == parallel


def test_sweep_csv_schema():
    grid = SweepGrid(model="capacity", parameters=[("alpha", [45.0])])
    text = comparative_statics_sweep(grid).to_csv()
    header = text.splitlines()[0]
    assert header == "alpha,m_star,residual,mean_state,var_state,revenue,converged,seconds"


def test_monotonicity_check_basics():
    grid = SweepGrid(model="two-state-toy", parameters=[("discount", [0.9, 0.95])])
    result = comparative_statics_sweep(grid)
    # constant metric passes both directions
    for direction in ("nondecreasing", "nonincreasing"):
        assert monotonicity_check(result, "m_star", direction).passed
    # violations are reported with the offending pairs
    result.cells[0].m_star, result.cells[1].m_star = 1.0, 0.5
    report = monotonicity_check(result, "m_star", "nondecreasing", tolerance=1e-6)
    assert not report.passed
    assert report.violations == [(0, 1, 1.0, 0.5)]


def test_monotonicity_requires_one_dimensional_sweep():
    grid = SweepGrid(
        model="inventory",
        parameters=[("holding_cost", [1.0]), ("revenue_share", [0.5])],
    )
    result = comparative_statics_sweep(grid)
    with pytest.raises(ValueError, match="1-D"):
        monotonicity_check(result)


def test_heatmap_grid_outputs():
    result = revenue_heatmap([0.0, 1.0], [0.5, 0.7], workers=1)
    assert len(result.cells) == 4
    assert all(np.isfinite(c.revenue) for c in result.cells)
    matrix = heatmap_matrix_csv(result)
    lines = matrix.splitlines()
    assert lines[0].startswith("holding_cost\\revenue_share")
    assert len(lines) == 3
    svg = heatmap_svg(result)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<rect") == 4
