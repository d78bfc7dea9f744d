import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfekit import models
from mfekit.chain import (
    ErgodicityReport,
    NonErgodicChainError,
    TransitionMatrix,
    build_chain,
    ergodicity_check,
    monte_carlo_stationary,
    population_to_csv,
    stationary_distribution,
)
from mfekit.core import StationaryPolicy
from mfekit.dp import extract_policy, value_iteration


def lowest_feasible_policy(model, m):
    return StationaryPolicy(
        np.array([model.action_space.feasible_at(x)[0] for x in range(model.n_states)]), m
    )


def optimal_policy(model, m):
    return extract_policy(model, value_iteration(model, m, 1e-6, 4000))


def test_toy_chain_rows(toy_model):
    g = lowest_feasible_policy(toy_model, 0.3)
    P = build_chain(toy_model, g, 0.3)
    assert np.allclose(P.rows, [[0.3, 0.7], [0.3, 0.7]])


def test_capacity_interior_row(capacity_model):
    # state 5, action value 1.0, depreciation 0.51
    a_idx = capacity_model.action_space.values.index(1.0)
    row = capacity_model.transition_row(5, a_idx, 10.0)
    assert row[6] == pytest.approx(0.245)
    assert row[5] == pytest.approx(0.5)
    assert row[4] == pytest.approx(0.255)


def test_capacity_boundary_rows(capacity_model):
    a_idx = capacity_model.action_space.values.index(1.0)
    row0 = capacity_model.transition_row(0, a_idx, 10.0)
    assert row0[1] == pytest.approx(0.245)
    assert row0[0] == pytest.approx(0.755)
    row_top = capacity_model.transition_row(39, a_idx, 10.0)
    assert row_top[39] == pytest.approx(0.745)   # success folded into stay
    assert row_top[38] == pytest.approx(0.255)


def test_stationary_identical_rows():
    P = TransitionMatrix(np.array([[0.3, 0.7], [0.3, 0.7]]))
    s = stationary_distribution(P)
    assert np.allclose(s.probs, [0.3, 0.7], atol=1e-14)


def test_stationary_birth_death_closed_form():
    p, q = 0.2, 0.1
    P = TransitionMatrix(np.array([[1 - p, p], [q, 1 - q]]))
    s = stationary_distribution(P)
    assert s.probs[0] == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert s.probs[1] == pytest.approx(2.0 / 3.0, abs=1e-13)


def test_stationary_identity_matrix_raises():
    P = TransitionMatrix(np.eye(3))
    with pytest.raises(NonErgodicChainError) as exc:
        stationary_distribution(P)
    assert "recurrent class" in str(exc.value)


def test_stationary_residual_within_tolerance(all_models):
    for name, model in all_models.items():
        m = model.bounds.midpoint()
        g = optimal_policy(model, m)
        s = stationary_distribution(build_chain(model, g, m))
        P = build_chain(model, g, m)
        assert np.abs(s.probs @ P.rows - s.probs).sum() <= 1e-12, name


def test_ergodicity_all_positive():
    P = TransitionMatrix(np.array([[0.3, 0.7], [0.3, 0.7]]))
    assert ergodicity_check(P).ergodic


def test_ergodicity_periodic_permutation():
    P = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    report = ergodicity_check(P)
    assert report.irreducible
    assert not report.aperiodic
    assert report.period == 2


def test_ergodicity_block_diagonal_lists_components():
    block = np.array([[0.5, 0.5], [0.5, 0.5]])
    P = TransitionMatrix(np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]]))
    report = ergodicity_check(P)
    assert not report.irreducible
    assert len(report.recurrent_classes) == 2
    assert sorted(map(sorted, report.recurrent_classes)) == [[0, 1], [2, 3]]


def _report(recurrent, transient, period, n_components):
    irreducible = n_components == 1
    return ErgodicityReport(
        ergodic=irreducible and period == 1,
        irreducible=irreducible,
        aperiodic=period == 1,
        recurrent_classes=recurrent,
        transient_states=transient,
        period=period,
    )


# Each chain with its report worked out by hand: recurrent classes in the
# order of their smallest state, the period the largest over those classes.
HAND_CHECKED_CHAINS = {
    "transient feeding one class": (
        [[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.0, 0.6, 0.4]],
        _report([[1, 2]], [0], 1, n_components=2),
    ),
    "period 2, four-cycle both ways": (
        [[0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0]],
        _report([[0, 1, 2, 3]], [], 2, n_components=1),
    ),
    "period 3, cyclic pairs": (
        [[0.0, 0.0, 0.4, 0.6, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
         [0.0, 0.0, 0.0, 0.0, 0.2, 0.8],
         [0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
         [0.3, 0.7, 0.0, 0.0, 0.0, 0.0],
         [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        _report([[0, 1, 2, 3, 4, 5]], [], 3, n_components=1),
    ),
    "period 3 only through a long cycle": (
        # cycles 0-1-2-0 (length 3) and 0-1-2-3-4-5-0 (length 6)
        [[0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
         [0.5, 0.0, 0.0, 0.5, 0.0, 0.0],
         [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
         [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
         [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
        _report([[0, 1, 2, 3, 4, 5]], [], 3, n_components=1),
    ),
    "absorbing state, transient state, periodic class": (
        [[1.0, 0.0, 0.0, 0.0, 0.0],
         [0.2, 0.3, 0.0, 0.5, 0.0],
         [0.0, 0.0, 0.0, 1.0, 0.0],
         [0.0, 0.0, 0.0, 0.0, 1.0],
         [0.0, 0.0, 1.0, 0.0, 0.0]],
        _report([[0], [2, 3, 4]], [1], 3, n_components=3),
    ),
    "two classes listed by smallest state, transients between": (
        [[0.0, 0.0, 0.0, 0.3, 0.0, 0.7],
         [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
         [0.1, 0.0, 0.9, 0.0, 0.0, 0.0],
         [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
         [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
         [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]],
        _report([[1, 4], [3, 5]], [0, 2], 2, n_components=4),
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_CHECKED_CHAINS))
def test_ergodicity_check_matches_hand_computed_report(name):
    rows, expected = HAND_CHECKED_CHAINS[name]
    assert ergodicity_check(TransitionMatrix(np.array(rows))) == expected


def test_importing_mfekit_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, mfekit, mfekit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_unichain_with_transients_still_solves():
    # state 0 drains into the ergodic block {1, 2}
    P = TransitionMatrix(np.array([[0.0, 0.5, 0.5], [0.0, 0.3, 0.7], [0.0, 0.6, 0.4]]))
    report = ergodicity_check(P)
    assert not report.irreducible and len(report.recurrent_classes) == 1
    assert report.transient_states == [0]
    s = stationary_distribution(P)
    assert s.probs[0] == 0.0


def test_capacity_chain_ergodic_across_policies(capacity_model):
    for m in (0.0, 19.5, 39.0):
        for a_idx in (0, capacity_model.n_actions // 2, capacity_model.n_actions - 1):
            g = StationaryPolicy(np.full(capacity_model.n_states, a_idx), m)
            assert ergodicity_check(build_chain(capacity_model, g, m)).ergodic
        assert ergodicity_check(build_chain(capacity_model, optimal_policy(capacity_model, m), m)).ergodic


def test_monte_carlo_two_cycle():
    # deterministic 2-cycle: the alternating trajectory splits mass evenly
    from mfekit.core import ActionSpace, ModelSpec, ScalarBounds, StateSpace

    cycle = ModelSpec(
        name="cycle",
        state_space=StateSpace(labels=(0, 1)),
        action_space=ActionSpace.uniform((0.0,), 2),
        discount=0.9,
        payoff=lambda x, a, m: 0.0,
        transition_row=lambda x, a, m: np.array([0.0, 1.0]) if x == 0 else np.array([1.0, 0.0]),
        transition_sample=lambda x, a, m, rng: 1 - x,
        interaction=lambda s, g, m: float(s[1]),
        bounds=ScalarBounds(0.0, 1.0),
    )
    g = lowest_feasible_policy(cycle, 0.5)
    s = monte_carlo_stationary(cycle, g, 0.5, K=10_000, seed=0)
    assert np.abs(s.probs - 0.5).max() <= 1e-4


def test_monte_carlo_matches_exact_toy(toy_model):
    g = lowest_feasible_policy(toy_model, 0.3)
    s_exact = stationary_distribution(build_chain(toy_model, g, 0.3))
    for seed in (0, 1, 2):
        s_hat = monte_carlo_stationary(toy_model, g, 0.3, K=200_000, seed=seed)
        assert np.abs(s_hat.probs - s_exact.probs).sum() <= 0.01


def test_monte_carlo_consistency_all_models(all_models):
    # Two chains measurably miss the 0.01 bound the rest meet at K=200k and
    # carry bounds at their measured error scale instead: capacity mixes
    # slowly (second eigenvalue 0.9968, relaxation time ~317 steps, L1 range
    # 0.008-0.020 over seeds) and reputation spreads the count error over 231
    # states (L1 ~0.023-0.026 over seeds).
    l1_bound = {"capacity": 0.035, "reputation": 0.035}
    for name, model in all_models.items():
        m = model.bounds.midpoint()
        g = optimal_policy(model, m)
        s_exact = stationary_distribution(build_chain(model, g, m))
        for seed in (0, 1, 2):
            s_hat = monte_carlo_stationary(model, g, m, K=200_000, seed=seed)
            l1 = np.abs(s_hat.probs - s_exact.probs).sum()
            assert l1 <= l1_bound.get(name, 0.01), (name, seed, l1)


def test_monte_carlo_k1_two_visited_states(toy_model):
    g = lowest_feasible_policy(toy_model, 0.5)
    s = monte_carlo_stationary(toy_model, g, 0.5, K=1, seed=4)
    assert s.probs.sum() == pytest.approx(1.0)
    assert np.count_nonzero(s.probs) <= 2


def test_monte_carlo_deterministic_given_seed(toy_model):
    g = lowest_feasible_policy(toy_model, 0.3)
    a = monte_carlo_stationary(toy_model, g, 0.3, K=10_000, seed=9)
    b = monte_carlo_stationary(toy_model, g, 0.3, K=10_000, seed=9)
    assert np.array_equal(a.probs, b.probs)


def test_power_iteration_cross_check(all_models):
    # s^T P^k from uniform converges to the exact solution on ergodic chains.
    for name in ("two-state-toy", "inventory", "capacity", "ridesharing", "social-learning"):
        model = all_models[name]
        m = model.bounds.midpoint()
        g = optimal_policy(model, m)
        P = build_chain(model, g, m)
        if not ergodicity_check(P).ergodic:
            continue
        s_exact = stationary_distribution(P)
        v = np.full(model.n_states, 1.0 / model.n_states)
        for _ in range(10_000):
            v = v @ P.rows
        assert np.abs(v - s_exact.probs).sum() <= 1e-8, name


def test_population_csv_format(toy_model):
    text = population_to_csv(toy_model.state_space, np.array([0.3, 0.7]))
    lines = text.strip().split("\n")
    assert lines[0] == "state_label,probability"
    assert lines[1] == "1,0.3"
    assert len(lines) == 3
