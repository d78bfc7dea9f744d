import numpy as np
import pytest

from conftest import make_random_model
from mfekit import dp, models
from mfekit.core import ActionSpace, ModelSpec, ScalarBounds, StateSpace, StationaryPolicy
from mfekit.dp import (
    ValueTable,
    bellman_backup,
    extract_policy,
    policy_iteration,
    value_iteration,
)
from mfekit.equilibrium import residual
from mfekit.learning import LearningConfig, projected_policy_gradient


def single_state_model(payoff=1.0, discount=0.5):
    ss = StateSpace(labels=(0,))
    return ModelSpec(
        name="single",
        state_space=ss,
        action_space=ActionSpace.uniform((0.0,), 1),
        discount=discount,
        payoff=lambda x, a, m: payoff,
        transition_row=lambda x, a, m: np.array([1.0]),
        transition_sample=lambda x, a, m, rng: 0,
        interaction=lambda s, g, m: 0.5,
        bounds=ScalarBounds(0.0, 1.0),
    )


def bandit_model(rewards=(0.0, 1.0), discount=1e-9):
    ss = StateSpace(labels=(0,))
    return ModelSpec(
        name="bandit",
        state_space=ss,
        action_space=ActionSpace.uniform(tuple(float(r) for r in rewards), 1),
        discount=discount,
        payoff=lambda x, a, m: float(rewards[a]),
        transition_row=lambda x, a, m: np.array([1.0]),
        transition_sample=lambda x, a, m, rng: 0,
        interaction=lambda s, g, m: 0.5,
        bounds=ScalarBounds(0.0, 1.0),
    )


def test_single_backup_from_zero():
    model = single_state_model()
    V1 = bellman_backup(model, ValueTable(np.zeros(1), m=0.5))
    assert V1.values[0] == pytest.approx(1.0)
    assert V1.sup_norm_residual == pytest.approx(1.0)


def test_value_iteration_geometric_series():
    model = single_state_model()
    V = value_iteration(model, 0.5, tol=1e-10, max_iters=200)
    assert V.values[0] == pytest.approx(2.0, abs=1e-9)
    assert V.converged


def test_zero_payoff_fixed_point(toy_model):
    V1 = bellman_backup(toy_model, ValueTable(np.zeros(2), m=0.3))
    assert np.all(V1.values == 0.0)
    assert V1.sup_norm_residual == 0.0


def test_myopic_discount_converges_in_one_iteration(inventory_model):
    import dataclasses

    myopic = dataclasses.replace(inventory_model, discount=1e-12)
    V = value_iteration(myopic, 0.5, tol=1e-6, max_iters=10)
    best_payoffs = np.array(
        [
            max(myopic.payoff(x, a, 0.5) for a in myopic.action_space.feasible_at(x))
            for x in range(myopic.n_states)
        ]
    )
    assert np.allclose(V.values, best_payoffs, atol=1e-9)
    assert V.iterations <= 2


def test_max_iters_exhaustion_flags_not_raises():
    model = single_state_model(discount=0.99)
    V = value_iteration(model, 0.5, tol=1e-12, max_iters=3)
    assert not V.converged
    assert V.iterations == 3


def test_bandit_policy_picks_best_action():
    g = extract_policy(bandit_model(), value_iteration(bandit_model(), 0.5, 1e-9, 50))
    assert g.actions[0] == 1


def test_tie_break_lowest_action_index():
    model = bandit_model(rewards=(0.7, 0.7, 0.7))
    g = extract_policy(model, value_iteration(model, 0.5, 1e-9, 50))
    assert g.actions[0] == 0


def test_contraction_on_random_value_pairs():
    rng = np.random.default_rng(0)
    for trial in range(25):
        model = make_random_model(rng, n_states=5, n_actions=3, discount=0.85)
        v1 = rng.normal(size=5) * 10
        v2 = rng.normal(size=5) * 10
        T1 = bellman_backup(model, ValueTable(v1, m=0.5))
        T2 = bellman_backup(model, ValueTable(v2, m=0.5))
        lhs = np.max(np.abs(T1.values - T2.values))
        rhs = model.discount * np.max(np.abs(v1 - v2))
        assert lhs <= rhs + 1e-12


def test_monotonicity_of_bellman_operator():
    rng = np.random.default_rng(1)
    for trial in range(25):
        model = make_random_model(rng, n_states=5, n_actions=3, discount=0.9)
        v2 = rng.normal(size=5)
        v1 = v2 + rng.uniform(0.0, 2.0, size=5)   # v1 >= v2 pointwise
        T1 = bellman_backup(model, ValueTable(v1, m=0.5))
        T2 = bellman_backup(model, ValueTable(v2, m=0.5))
        assert np.all(T1.values >= T2.values - 1e-12)


def test_greedy_policy_reproduces_backup_exactly():
    rng = np.random.default_rng(2)
    for trial in range(10):
        model = make_random_model(rng, n_states=6, n_actions=4, discount=0.9)
        V = value_iteration(model, 0.5, tol=1e-8, max_iters=2000)
        g = extract_policy(model, V)
        tv = bellman_backup(model, V)
        lookahead = V.lookahead[np.arange(model.n_states), g.actions]
        assert np.array_equal(lookahead, tv.values)   # bitwise: same argmax entries


def test_capacity_value_monotone_convex_policy_monotone(capacity_model):
    # The monotone/convex structure is a property of the unbounded-state
    # model; the grid truncation bends both near the cap (the folded success
    # probability caps the marginal value of capacity), so the shape checks
    # apply to the interior states only.
    interior = 21
    V = value_iteration(capacity_model, 10.0, tol=1e-6, max_iters=4000)
    vals = V.values
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-8)                              # nondecreasing in x
    assert np.all(np.diff(diffs[:interior]) >= -1e-6)          # discretely convex
    g = extract_policy(capacity_model, V)
    assert np.all(np.diff(g.actions[: interior + 5]) >= 0)     # investment rises with x


def test_capacity_vfi_iteration_budget_matches_contraction_bound(capacity_model):
    V = value_iteration(capacity_model, 10.0, tol=1e-4, max_iters=1000)
    assert V.converged
    assert V.iterations <= 1000


def test_value_iteration_contraction_error_bound(capacity_model):
    # stopping at tol guarantees ||V - V*||_inf <= tol * beta / (1 - beta)
    tol = 1e-4
    beta = capacity_model.discount
    V = value_iteration(capacity_model, 10.0, tol=tol, max_iters=5000)
    V_ref = value_iteration(capacity_model, 10.0, tol=1e-12, max_iters=100_000)
    gap = float(np.max(np.abs(V.values - V_ref.values)))
    assert gap <= tol * beta / (1.0 - beta)


def test_one_evaluation_builds_its_tables_once(monkeypatch, capacity_model, inventory_model):
    calls = []
    build = dp.model_matrices

    def counting(model, m):
        calls.append(m)
        return build(model, m)

    monkeypatch.setattr(dp, "model_matrices", counting)
    ev = residual(capacity_model, 10.0)
    assert ev.value_table.iterations > 1
    assert calls == [10.0]

    calls.clear()
    projected_policy_gradient(inventory_model, 0.3, LearningConfig(pg_steps=50, pg_rate=0.05, seed=1))
    assert calls == [0.3]


def random_feasible_policy(model, m, rng):
    return StationaryPolicy(
        np.array([rng.choice(model.action_space.feasible_at(x)) for x in range(model.n_states)]), m
    )


def test_policy_iteration_matches_converged_value_iteration():
    rng = np.random.default_rng(3)
    for discount in (0.5, 0.9, 0.99):
        for trial in range(10):
            model = make_random_model(rng, n_states=7, n_actions=4, discount=discount)
            V = policy_iteration(model, 0.5)
            V_ref = value_iteration(model, 0.5, tol=1e-12, max_iters=100_000)
            assert V.converged and V_ref.converged
            assert np.array_equal(extract_policy(model, V).actions, extract_policy(model, V_ref).actions)
            assert np.allclose(V.values, V_ref.values, atol=1e-9)
            assert V.sup_norm_residual <= 1e-9


def test_policy_iteration_result_does_not_depend_on_the_start(capacity_model):
    rng = np.random.default_rng(4)
    cases = [(make_random_model(rng, n_states=6, n_actions=5, discount=0.95), 0.5) for _ in range(5)]
    cases += [(capacity_model, m) for m in (0.0, 6.8, 19.5)]
    for model, m in cases:
        cold = policy_iteration(model, m)
        g = extract_policy(model, cold)
        for _ in range(5):
            warm = policy_iteration(model, m, start=random_feasible_policy(model, m, rng))
            assert np.array_equal(extract_policy(model, warm).actions, g.actions)
        # Started at its own answer, the iteration only confirms it.
        assert policy_iteration(model, m, start=g).iterations == 1


def test_policy_iteration_rejects_infeasible_start(inventory_model):
    infeasible = np.flatnonzero(~inventory_model.action_space.mask(inventory_model.n_states)[-1])
    actions = np.zeros(inventory_model.n_states, dtype=int)
    actions[-1] = infeasible[0]
    with pytest.raises(ValueError, match="feasible"):
        policy_iteration(inventory_model, 0.5, start=StationaryPolicy(actions, 0.5))


def test_policy_iteration_raises_when_its_step_bound_runs_out(monkeypatch, capacity_model):
    assert policy_iteration(capacity_model, 10.0).iterations > 1
    monkeypatch.setattr(dp, "_MAX_IMPROVEMENT_STEPS", 1)
    with pytest.raises(RuntimeError, match="still improving"):
        policy_iteration(capacity_model, 10.0)


def test_capacity_high_discount_state_3_takes_the_exactly_better_action():
    # At discount 0.995, m = 19.5, value iteration with tol 1e-4 stops at its
    # 1,000-sweep budget and picks action 16 in state 3; action 17 is better
    # by 0.0245 in exact Q, and value iteration at tol 1e-10 also picks 17.
    model = models.build_model("capacity", {"discount": 0.995})
    V = policy_iteration(model, 19.5)
    assert extract_policy(model, V).actions[3] == 17
    assert V.lookahead[3, 17] - V.lookahead[3, 16] == pytest.approx(0.0245, abs=1e-4)
