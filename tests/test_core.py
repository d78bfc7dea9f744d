import dataclasses
import logging

import numpy as np
import pytest

from mfekit import models
from mfekit.core import (
    ActionSpace,
    DimensionMismatchError,
    ModelSpec,
    PopulationState,
    SampleView,
    ScalarBounds,
    StateSpace,
    StationaryPolicy,
    as_sample_view,
    interaction_value,
    validate_model,
)


def test_state_space_indices_bijective():
    ss = StateSpace(labels=("a", "b", "c"))
    assert ss.n == 3
    for i, lab in enumerate(ss.labels):
        assert ss.index_of(lab) == i
        assert ss.decode(i) == lab


def test_product_space_round_trip():
    ss = StateSpace.product((0, 1, 2, 3), (0, 1, 2, 3))
    assert ss.n == 16
    for idx in range(ss.n):
        assert ss.encode(ss.decode(idx)) == idx


def test_empty_state_space_rejected():
    with pytest.raises(ValueError):
        StateSpace(labels=())


def test_action_space_rejects_empty_feasible_set():
    with pytest.raises(ValueError, match="feasible set empty"):
        ActionSpace(values=(0.0, 1.0), feasible=((0,), ()))


def test_action_space_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="out of range"):
        ActionSpace(values=(0.0,), feasible=((1,),))


def test_bounds_require_lo_below_hi():
    with pytest.raises(ValueError):
        ScalarBounds(1.0, 1.0)
    b = ScalarBounds([0.0, 1.0], [1.0, 3.0], dim=2)
    assert b.clamp(np.array([-1.0, 5.0])).tolist() == [0.0, 3.0]


def test_population_state_validation():
    PopulationState(np.array([0.3, 0.7])).validate(2)
    with pytest.raises(ValueError):
        PopulationState(np.array([0.3, 0.6])).validate(2)
    with pytest.raises(ValueError):
        PopulationState(np.array([-0.1, 1.1])).validate(2)


def test_policy_feasibility_validation(inventory_model):
    n = inventory_model.n_states
    good = StationaryPolicy(np.full(n, n - 1), m=1.0)
    good.validate(inventory_model)
    bad = StationaryPolicy(np.zeros(n, dtype=int), m=1.0)  # ordering below stock
    with pytest.raises(ValueError, match="infeasible"):
        bad.validate(inventory_model)


def test_validate_model_empty_for_toy(toy_model):
    assert validate_model(toy_model) == []


def test_validate_model_empty_for_inventory(inventory_model):
    # All 10 x <=10 feasible pairs, rows sum to 1 by construction.
    assert validate_model(inventory_model) == []


def test_validate_model_reports_deficient_row(toy_model):
    broken = ModelSpec(
        name="broken",
        state_space=toy_model.state_space,
        action_space=toy_model.action_space,
        discount=0.9,
        payoff=toy_model.payoff,
        transition_row=lambda x, a, m: np.array([0.2, 0.7]),
        transition_sample=toy_model.transition_sample,
        interaction=toy_model.interaction,
        bounds=toy_model.bounds,
    )
    report = validate_model(broken)
    assert report
    assert any("sums to 0.9" in v and "deficit" in v for v in report)
    # the offending (x, a, m) triple is named
    assert any("(0,0,m=0" in v.replace(" ", "") for v in report)


def test_interaction_value_capacity_uniform(capacity_model):
    s = PopulationState.uniform(capacity_model.n_states)
    g = StationaryPolicy(np.zeros(capacity_model.n_states, dtype=int), m=10.0)
    assert interaction_value(capacity_model, s, g, 10.0) == pytest.approx(19.5)


def test_interaction_value_toy_mass_on_state_two(toy_model):
    s = PopulationState(np.array([0.3, 0.7]))
    g = StationaryPolicy(np.zeros(2, dtype=int), m=0.3)
    assert interaction_value(toy_model, s, g, 0.3) == pytest.approx(0.7)


def test_interaction_value_point_mass_lower_bound(capacity_model):
    s = PopulationState.point_mass(capacity_model.n_states, 0)
    g = StationaryPolicy(np.zeros(capacity_model.n_states, dtype=int), m=1.0)
    assert interaction_value(capacity_model, s, g, 1.0) == pytest.approx(0.0)


def test_interaction_value_clamps_and_logs(toy_model, caplog):
    spiky = ModelSpec(
        name="spiky",
        state_space=toy_model.state_space,
        action_space=toy_model.action_space,
        discount=0.9,
        payoff=toy_model.payoff,
        transition_row=toy_model.transition_row,
        transition_sample=toy_model.transition_sample,
        interaction=lambda s, g, m: 1.7,
        bounds=ScalarBounds(0.0, 1.0),
    )
    s = PopulationState.uniform(2)
    with caplog.at_level(logging.WARNING, logger="mfekit.core"):
        out = interaction_value(spiky, s, None, 0.5)
    assert out == 1.0
    assert any("clamped" in rec.message for rec in caplog.records)


def test_interaction_dimension_mismatch(toy_model):
    wrong = ModelSpec(
        name="wrong-dim",
        state_space=toy_model.state_space,
        action_space=toy_model.action_space,
        discount=0.9,
        payoff=toy_model.payoff,
        transition_row=toy_model.transition_row,
        transition_sample=toy_model.transition_sample,
        interaction=lambda s, g, m: np.array([0.5, 0.5]),
        bounds=ScalarBounds(0.0, 1.0),
    )
    with pytest.raises(DimensionMismatchError):
        interaction_value(wrong, PopulationState.uniform(2), None, 0.5)


def test_interaction_invariant_under_consistent_permutation(capacity_model):
    rng = np.random.default_rng(7)
    n = capacity_model.n_states
    probs = rng.dirichlet(np.ones(n))
    base = capacity_model.interaction(probs, None, 10.0)
    # permuting (value, probability) pairs together cannot change the aggregate
    perm = rng.permutation(n)
    values = capacity_model.state_space.numeric
    assert float(values[perm] @ probs[perm]) == pytest.approx(base, abs=1e-12)


def test_sample_view_hides_model_internals(inventory_model):
    view = as_sample_view(inventory_model)
    assert isinstance(view, SampleView)
    with pytest.raises(AttributeError):
        view.transition_row
    with pytest.raises(AttributeError):
        view.payoff
    r, y = view.payoff_sample(0, 5, 0.5, np.random.default_rng(0))
    assert np.isfinite(r) and 0 <= y < inventory_model.n_states


def test_transition_rows_stochastic_on_five_point_grid(all_models):
    for name, model in all_models.items():
        lo, hi = model.bounds.lo_vec[0], model.bounds.hi_vec[0]
        for m in np.linspace(lo, hi, 5):
            for x in range(model.n_states):
                for a in model.action_space.feasible_at(x):
                    row = model.transition_row(x, a, float(m))
                    assert abs(row.sum() - 1.0) <= 1e-12, (name, x, a, m)
                    assert np.all(row >= 0), (name, x, a, m)


def test_sampling_matches_enumerated_law(all_models):
    # 50k draws at a fixed (x, a, m): total variation <= 0.02, for the
    # individual and for the population kernel.
    draws = 50_000
    for name, model in all_models.items():
        x = model.n_states // 2
        a = model.action_space.feasible_at(x)[-1]
        m = model.bounds.midpoint()
        for kernel, row_fn, sample_fn in (
            ("transition", model.transition_row, model.transition_sample),
            ("population", model.population_row_fn, model.population_sample_fn),
        ):
            rng = np.random.default_rng(11)
            row = row_fn(x, a, m)
            counts = np.zeros(model.n_states)
            for _ in range(draws):
                counts[sample_fn(x, a, m, rng)] += 1
            tv = 0.5 * np.abs(counts / draws - row).sum()
            assert tv <= 0.02, (name, kernel, tv)


@pytest.mark.parametrize("regeneration", [(0.0, 0), (1.0, 0), (-0.5, 1), (0.9, 2), (0.9, -1)])
def test_model_spec_rejects_invalid_regeneration(toy_model, regeneration):
    with pytest.raises(ValueError, match="regeneration"):
        dataclasses.replace(toy_model, regeneration=regeneration)
