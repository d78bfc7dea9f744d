import numpy as np
import pytest

from conftest import make_random_model
from mfekit import models
from mfekit.core import ActionSpace, ModelSpec, ScalarBounds, StateSpace
from mfekit.dp import value_iteration, extract_policy, _lookahead
from mfekit.equilibrium import SolverConfig, adaptive_vfi
from mfekit.learning import (
    LearningConfig,
    adaptive_policy_gradient,
    adaptive_q_learning,
    greedy_policy,
    projected_policy_gradient,
    q_learning,
    simplex_projection,
)


def make_simple_model(rewards, rows, discount, bounds=(0.0, 1.0), name="simple"):
    """Dense model from explicit reward and transition arrays."""
    rewards = np.asarray(rewards, dtype=float)
    rows = np.asarray(rows, dtype=float)
    n, k = rewards.shape
    cdfs = np.cumsum(rows, axis=2)

    def payoff(x, a, m):
        return float(rewards[x, a])

    def transition_row(x, a, m):
        return rows[x, a].copy()

    def transition_sample(x, a, m, rng):
        return int(np.searchsorted(cdfs[x, a], rng.random(), side="right"))

    def payoff_sample(x, a, m, rng):
        return payoff(x, a, m), transition_sample(x, a, m, rng)

    return ModelSpec(
        name=name,
        state_space=StateSpace(labels=tuple(range(n))),
        action_space=ActionSpace.uniform(tuple(float(a) for a in range(k)), n),
        discount=discount,
        payoff=payoff,
        transition_row=transition_row,
        transition_sample=transition_sample,
        interaction=lambda s, g, m: float(s[-1]),
        bounds=ScalarBounds(*bounds),
        payoff_sample=payoff_sample,
    )


# --- q-learning -------------------------------------------------------------

def test_q_learning_geometric_series():
    model = make_simple_model([[1.0]], [[[1.0]]], discount=0.9)
    q = q_learning(model, 0.5, LearningConfig(updates=40_000, seed=1))
    assert q.q[0, 0] == pytest.approx(10.0, abs=0.1)


def test_q_learning_bandit_greedy_action():
    model = make_simple_model([[0.0, 1.0]], [[[1.0], [1.0]]], discount=1e-9)
    q = q_learning(model, 0.5, LearningConfig(updates=5_000, seed=0))
    assert greedy_policy(q).actions[0] == 1


def test_q_learning_env_step_budget_exact():
    model = make_simple_model([[1.0]], [[[1.0]]], discount=0.5)
    cfg = LearningConfig(updates=1_234, seed=0, minibatch=16)
    q = q_learning(model, 0.5, cfg)
    assert q.env_steps == 1_234
    assert q.total_updates == 1_234 * 16


def test_q_learning_deterministic_given_seed(inventory_model):
    cfg = LearningConfig(updates=3_000, seed=42)
    a = q_learning(inventory_model, 0.5, cfg)
    b = q_learning(inventory_model, 0.5, cfg)
    assert np.array_equal(np.nan_to_num(a.q), np.nan_to_num(b.q))
    assert a.trace == b.trace


def test_q_learning_visits_respect_feasibility(inventory_model):
    q = q_learning(inventory_model, 0.5, LearningConfig(updates=5_000, seed=7))
    assert np.all(q.update_counts[~q.feasible] == 0)
    g = greedy_policy(q)
    g.validate(inventory_model)


def test_q_learning_is_model_free(toy_model):
    # A model whose enumerated law and expected payoff blow up on touch:
    # the learner must finish anyway.
    def forbidden(*args):
        raise AssertionError("model-free boundary violated")

    import dataclasses

    tripwire = dataclasses.replace(toy_model, payoff=forbidden, transition_row=forbidden)
    q = q_learning(tripwire, 0.4, LearningConfig(updates=2_000, seed=3))
    assert q.env_steps == 2_000


def test_greedy_policy_tie_breaks_low(toy_model):
    from mfekit.learning import QTable

    q = QTable(
        q=np.array([[0.5, 0.5], [0.2, 0.9]]),
        m=0.5,
        feasible=np.ones((2, 2), dtype=bool),
        update_counts=np.zeros((2, 2), dtype=int),
    )
    g = greedy_policy(q)
    assert g.actions.tolist() == [0, 1]


def test_q_learning_exploit_ties_go_to_lowest_index_in_any_feasible_order():
    # Equal payoffs keep both Q-values at 0, so every greedy step is a tie;
    # it must go to action 0 even though the feasible tuple lists 1 first.
    import dataclasses

    model = make_simple_model([[0.0, 0.0]], [[[1.0], [1.0]]], discount=0.5)
    model = dataclasses.replace(
        model, action_space=ActionSpace(values=(0.0, 1.0), feasible=((1, 0),))
    )
    cfg = LearningConfig(updates=200, seed=0, epsilon0=0.0, epsilon_min=0.0)
    q = q_learning(model, 0.5, cfg)
    assert q.update_counts.tolist() == [[200 * cfg.minibatch, 0]]


def test_q_learning_matches_dp_oracle_small_model():
    # ||Q_hat - Q*||_inf <= 0.05 against the one-step-lookahead oracle at the
    # Robbins-Monro schedule (unit-scale rewards, 3 states).
    rng = np.random.default_rng(8)
    model = make_random_model(rng, n_states=3, n_actions=2, discount=0.8)
    cfg = LearningConfig(
        updates=62_500, minibatch=16, seed=5,
        rate_mode="robbins_monro", rate_c=1.0, rate_exponent=0.6,
        tail_average=0.5, episode_length=50,
    )
    q = q_learning(model, 0.5, cfg)
    V = value_iteration(model, 0.5, tol=1e-12, max_iters=100_000)
    q_star = _lookahead(model, V.values, 0.5)
    err = float(np.nanmax(np.abs(np.where(q.feasible, q.q - q_star, np.nan))))
    assert err <= 0.05, err


@pytest.mark.slow
def test_q_learning_recovers_dp_policy_on_inventory():
    # The DP solver is the oracle; the learned greedy policy must agree on
    # at least 95% of states, with any mismatch confined to near-ties in the
    # oracle's own lookahead (gap < 0.05).  Needs the Robbins-Monro schedule
    # with a large early rate (the value scale is ~1.5e3, so a timid schedule
    # leaves initialization bias in the bootstrap) plus the averaged readout.
    inv = models.build_inventory_model()
    vfi = adaptive_vfi(inv, SolverConfig(**models.solver_defaults("inventory")))
    cfg = LearningConfig(
        updates=600_000, seed=0,
        rate_mode="robbins_monro", rate_c=5.0, rate_exponent=0.65,
        tail_average=0.5,
    )
    q = q_learning(inv, vfi.m_star, cfg)
    g_hat = greedy_policy(q)
    V = value_iteration(inv, vfi.m_star, tol=1e-10, max_iters=20_000)
    q_star = _lookahead(inv, V.values, vfi.m_star)
    n = inv.n_states
    mismatches = [x for x in range(n) if g_hat.actions[x] != vfi.policy.actions[x]]
    assert n - len(mismatches) >= 0.95 * n, mismatches
    for x in mismatches:
        gap = q_star[x, vfi.policy.actions[x]] - q_star[x, g_hat.actions[x]]
        assert gap < 0.05, (x, gap)
    # order-up-to structure: the learned target level never falls in the stock
    levels = np.array([inv.action_space.values[a] for a in g_hat.actions])
    assert np.all(np.diff(levels) >= 0)


def test_replay_buffer_fifo_and_capacity():
    # White-box check through a tiny capacity: with capacity 1 the replayed
    # tuple is always the most recent transition.
    model = make_simple_model([[0.0, 1.0]], [[[1.0], [1.0]]], discount=1e-9)
    cfg = LearningConfig(updates=500, replay_capacity=1, minibatch=1, seed=2)
    q = q_learning(model, 0.5, cfg)
    assert q.total_updates == 500


# --- simplex projection -------------------------------------------------------

def test_simplex_projection_examples():
    assert np.allclose(simplex_projection(np.array([0.6, 0.6])), [0.5, 0.5])
    assert np.allclose(simplex_projection(np.array([1.0, 0.0])), [1.0, 0.0])
    assert np.allclose(simplex_projection(np.array([2.0, -1.0])), [1.0, 0.0])


def test_simplex_projection_idempotent_and_valid():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.normal(scale=3.0, size=rng.integers(1, 8))
        p = simplex_projection(v)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(simplex_projection(p), p, atol=1e-12)


def test_simplex_projection_is_nearest_point():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        v = rng.normal(scale=2.0, size=n)
        p = simplex_projection(v)
        d_star = np.linalg.norm(v - p)
        for _ in range(20):
            q = rng.dirichlet(np.ones(n))
            assert d_star <= np.linalg.norm(v - q) + 1e-10
        for vertex in np.eye(n):
            assert d_star <= np.linalg.norm(v - vertex) + 1e-10


# --- projected policy gradient --------------------------------------------------

def test_pg_bandit_concentrates_on_best_action():
    model = make_simple_model([[0.0, 1.0]], [[[1.0], [1.0]]], discount=1e-9)
    pol = projected_policy_gradient(model, 0.5, LearningConfig(pg_steps=400, pg_rate=0.2))
    assert pol.probs[0, 1] >= 1.0 - 1e-3


def test_pg_single_action_model_reproduces_vfi_value(toy_model):
    import dataclasses

    # one action everywhere: no optimization, value must equal the DP value
    model = make_simple_model([[0.3], [0.7]], [[[0.5, 0.5]], [[0.2, 0.8]]], discount=0.9)
    pol = projected_policy_gradient(model, 0.5, LearningConfig(pg_steps=5, pg_rate=0.1))
    assert np.allclose(pol.probs, [[1.0], [1.0]])
    V = value_iteration(model, 0.5, tol=1e-12, max_iters=50_000)
    assert pol.value == pytest.approx(float(V.values.mean()), abs=1e-6)


def test_pg_zero_payoff_gradient_keeps_policy(toy_model):
    pol = projected_policy_gradient(toy_model, 0.5, LearningConfig(pg_steps=10, pg_rate=0.5))
    assert np.allclose(pol.probs[:, 0], 1.0)


def test_pg_respects_feasibility(inventory_model):
    pol = projected_policy_gradient(inventory_model, 0.3, LearningConfig(pg_steps=30, pg_rate=0.05, seed=1))
    pol.validate()
    mode = pol.mode()
    mode.validate(inventory_model)


def test_pg_sampled_estimator_runs_model_free(toy_model):
    import dataclasses

    def forbidden(*args):
        raise AssertionError("model-free boundary violated")

    trip = dataclasses.replace(toy_model, payoff=forbidden, transition_row=forbidden)
    cfg = LearningConfig(pg_rollouts=16, pg_horizon=20, pg_steps=3, pg_rate=0.1, pg_estimator="sampled")
    pol = projected_policy_gradient(trip, 0.4, cfg)
    pol.validate()


def test_pg_finds_optimal_policy_on_random_mdp():
    rng = np.random.default_rng(11)
    model = make_random_model(rng, n_states=4, n_actions=3, discount=0.8)
    pol = projected_policy_gradient(model, 0.5, LearningConfig(pg_steps=800, pg_rate=0.3))
    V = value_iteration(model, 0.5, tol=1e-12, max_iters=100_000)
    g_star = extract_policy(model, V)
    assert np.array_equal(pol.mode().actions, g_star.actions)


# --- adaptive outer loops --------------------------------------------------------

def test_adaptive_q_learning_toy(toy_model):
    scfg = SolverConfig(residual_tol=1e-2, max_outer=20)
    lcfg = LearningConfig(updates=2_000, mc_samples=200_000, seed=0)
    sol = adaptive_q_learning(toy_model, scfg, lcfg)
    assert abs(sol.m_star - 0.5) <= 0.01
    assert sol.extras["x0"] == 0


def test_adaptive_policy_gradient_toy(toy_model):
    scfg = SolverConfig(residual_tol=1e-2, max_outer=20)
    lcfg = LearningConfig(mc_samples=200_000, seed=0, pg_steps=5, pg_rate=0.1)
    sol = adaptive_policy_gradient(toy_model, scfg, lcfg)
    assert abs(sol.m_star - 0.5) <= 0.01


def test_adaptive_learners_agree_on_embedded_bandit():
    # two states; action 1 pays more and pushes toward state 1
    rewards = [[0.0, 1.0], [0.0, 1.0]]
    rows = [
        [[0.9, 0.1], [0.2, 0.8]],
        [[0.9, 0.1], [0.2, 0.8]],
    ]
    model = make_simple_model(rewards, rows, discount=0.7, name="embedded-bandit")
    scfg = SolverConfig(residual_tol=5e-3, max_outer=25)
    ql = adaptive_q_learning(model, scfg, LearningConfig(updates=8_000, mc_samples=100_000, seed=1))
    pg = adaptive_policy_gradient(model, scfg, LearningConfig(mc_samples=100_000, seed=1, pg_steps=300, pg_rate=0.3))
    exact = adaptive_vfi(model, SolverConfig(residual_tol=1e-10, bracket_tol=1e-12))
    assert abs(ql.m_star - exact.m_star) <= 0.01
    assert abs(pg.m_star - exact.m_star) <= 0.01


def test_adaptive_q_learning_is_model_free(inventory_model):
    import dataclasses

    def forbidden(*args):
        raise AssertionError("model-free boundary violated")

    trip = dataclasses.replace(inventory_model, payoff=forbidden, transition_row=forbidden)
    scfg = SolverConfig(residual_tol=0.05, max_outer=4)
    lcfg = LearningConfig(updates=2_000, mc_samples=5_000, seed=0)
    sol = adaptive_q_learning(trip, scfg, lcfg)
    assert np.isnan(sol.consistency_residual)  # diagnostic needs the kernel
    assert sol.extras["model_free"]


def test_adaptive_q_learning_bit_identical_given_seed(toy_model):
    scfg = SolverConfig(residual_tol=1e-4, max_outer=6)
    lcfg = LearningConfig(updates=1_000, mc_samples=5_000, seed=9)
    a = adaptive_q_learning(toy_model, scfg, lcfg)
    b = adaptive_q_learning(toy_model, scfg, lcfg)
    assert a.trace == b.trace
    assert a.m_star == b.m_star
    assert np.array_equal(a.population.probs, b.population.probs)


def test_adaptive_q_learning_cap_returns_best_iterate(toy_model):
    scfg = SolverConfig(residual_tol=1e-9, max_outer=3)   # unreachably tight
    lcfg = LearningConfig(updates=500, mc_samples=2_000, seed=0)
    sol = adaptive_q_learning(toy_model, scfg, lcfg)
    assert not sol.converged
    assert sol.stop_reason == "max_outer"
    assert sol.residual == min(abs(e["f"]) for e in sol.trace)
