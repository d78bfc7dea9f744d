import numpy as np
import pytest

from mfekit import models
from mfekit.core import PopulationState, StationaryPolicy, validate_model
from mfekit.chain import build_chain, ergodicity_check, stationary_distribution
from mfekit.models.inventory import baseline_demand_distribution, inventory_demand
from mfekit.models.social_learning import signal_weight


def test_all_builders_validate_clean(all_models):
    for name, model in all_models.items():
        assert validate_model(model) == [], name


def test_registry_round_trip():
    for name in models.model_names():
        built = models.build_model(name, {})
        assert built.name == name
    with pytest.raises(KeyError):
        models.build_model("no-such-model")
    with pytest.raises(KeyError, match="unknown"):
        models.build_model("inventory", {"made_up_knob": 3})


# --- two-state toy -----------------------------------------------------------

def test_toy_rows_at_extremes(toy_model):
    assert np.allclose(toy_model.transition_row(0, 0, 0.0), [0.0, 1.0])
    assert np.allclose(toy_model.transition_row(1, 0, 1.0), [1.0, 0.0])


def test_toy_residual_is_analytic(toy_model):
    from mfekit.equilibrium import residual

    for m in np.linspace(0.05, 0.95, 7):
        assert residual(toy_model, float(m)).f == pytest.approx(2 * m - 1, abs=1e-12)


# --- inventory ----------------------------------------------------------------

def test_inventory_demand_rounding():
    assert inventory_demand(2.5, 1.2, 1.0) == 4     # round(3.7)
    assert inventory_demand(0.0, 0.0, 1.0) == 0
    assert inventory_demand(2.5, 0.0, 1.0) == 3     # tie at 2.5 rounds up


def test_inventory_demand_nondecreasing_in_m():
    for zeta in (0.0, 1.5, 4.5):
        demands = [inventory_demand(zeta, m, 1.0) for m in np.linspace(0, 3, 40)]
        assert all(b >= a for a, b in zip(demands, demands[1:]))


def test_inventory_feasible_sets(inventory_model):
    assert inventory_model.action_space.feasible_at(9) == (9,)
    assert inventory_model.action_space.feasible_at(0) == tuple(range(10))


def test_inventory_transition_enumerates_demand_support(inventory_model):
    # x=9, a=9, m=0: next state is (9 - D)+ summed over the 19-point support
    zeta = baseline_demand_distribution(inventory_model.params)
    row = inventory_model.transition_row(9, 9, 0.0)
    expected = np.zeros(10)
    for z, q in zip(zeta.values, zeta.probs):
        expected[max(9 - inventory_demand(z, 0.0, 1.0), 0)] += q
    assert np.allclose(row, expected, atol=1e-15)


def test_inventory_payoff_no_order_at_full_stock(inventory_model):
    # a = x means zero production cost; only revenue/holding/shortage remain
    p = inventory_model.params
    zeta = baseline_demand_distribution(p)
    m = 0.7
    D = np.array([inventory_demand(z, m, p.spillover) for z in zeta.values])
    x = a = 9
    expected = (
        p.revenue_share * p.price * float(zeta.probs @ np.minimum(a, D))
        - p.holding_cost * float(zeta.probs @ np.maximum(a - D, 0.0))
        - p.shortage_cost * float(zeta.probs @ np.maximum(D - a, 0.0))
    )
    assert inventory_model.payoff(x, a, m) == pytest.approx(expected)


def test_inventory_interaction_needs_policy(inventory_model):
    s = PopulationState.uniform(10)
    with pytest.raises(ValueError, match="policy"):
        inventory_model.interaction(s.probs, None, 0.5)


def test_inventory_interaction_is_expected_unmet_demand(inventory_model):
    zeta = baseline_demand_distribution(inventory_model.params)
    s = PopulationState.point_mass(10, 0)
    g = StationaryPolicy(np.zeros(10, dtype=int), 0.5)   # order nothing
    got = inventory_model.interaction(s.probs, g.actions, 0.5)
    assert got == pytest.approx(zeta.mean)               # all demand unmet
    assert inventory_model.bounds.hi_vec[0] == pytest.approx(zeta.mean)


def test_platform_revenue_components():
    # deterministic check: a one-point demand distribution
    from mfekit.equilibrium import MfeSolution
    from mfekit.models import platform_revenue

    p = models.InventoryParams(holding_cost=2.0, revenue_share=0.5)
    # population concentrated at state 1 ordering up to 1; choose m=0 so that
    # D = round(zeta) over the default support
    sol = MfeSolution(
        m_star=0.0,
        policy=StationaryPolicy(np.array([1] * 10), 0.0),
        population=PopulationState.point_mass(10, 1),
        residual=0.0,
        consistency_residual=0.0,
        algorithm="test",
    )
    zeta = baseline_demand_distribution(p)
    D = np.array([inventory_demand(z, 0.0, 1.0) for z in zeta.values])
    commission = 0.5 * 30.0 * float(zeta.probs @ np.minimum(1.0, D))
    holding = 2.0 * float(zeta.probs @ np.maximum(1.0 - D, 0.0))
    assert platform_revenue(sol, p) == pytest.approx(commission + holding)
    # tau = 1: no commission, holding fees only
    p_full = models.InventoryParams(holding_cost=2.0, revenue_share=1.0)
    assert platform_revenue(sol, p_full) == pytest.approx(holding)
    # tau = 1 and h = 0: the platform earns nothing
    p_zero = models.InventoryParams(holding_cost=0.0, revenue_share=1.0)
    assert platform_revenue(sol, p_zero) == 0.0


# --- capacity / quality ladder -------------------------------------------------

def test_capacity_payoff_value(capacity_model):
    a_idx = capacity_model.action_space.values.index(0.5)
    got = capacity_model.payoff(10, a_idx, 6.798)
    assert got == pytest.approx(10 * (45 - 6.798) - 150 * 0.125)


def test_capacity_ergodic_for_every_policy_on_grid(capacity_model):
    for m in (0.0, 19.5, 39.0):
        for a_idx in (0, 9, 19):
            g = StationaryPolicy(np.full(40, a_idx), m)
            assert ergodicity_check(build_chain(capacity_model, g, m)).ergodic


def test_quality_ladder_payoff_and_bounds():
    ql = models.build_quality_ladder_model()
    assert ql.bounds.lo_vec[0] == 1.0
    assert ql.bounds.hi_vec[0] == 40.0
    a_idx = ql.action_space.values.index(0.05)
    assert ql.payoff(4, a_idx, 2.0) == pytest.approx(5.0 / 2.0 - 150 * 0.05**3)


# --- ridesharing ----------------------------------------------------------------

def test_ridesharing_accept_sets_countdown():
    rs = models.build_ridesharing_model()
    ss = rs.state_space
    x = ss.encode((0, 2))
    row = rs.transition_row(x, 1, 0.4)           # accept the type-2 request
    for j in range(4):
        expected = 0.4 if j == 0 else 0.2
        assert row[ss.encode((2, j))] == pytest.approx(expected)
    assert row.sum() == pytest.approx(1.0)


def test_ridesharing_countdown_and_feasibility():
    rs = models.build_ridesharing_model()
    ss = rs.state_space
    for x2 in range(4):
        x = ss.encode((3, x2))
        assert rs.action_space.feasible_at(x) == (0,)
        row = rs.transition_row(x, 0, 0.5)
        assert sum(row[ss.encode((2, j))] for j in range(4)) == pytest.approx(1.0)
    assert rs.action_space.feasible_at(ss.encode((0, 0))) == (0,)
    assert rs.action_space.feasible_at(ss.encode((0, 1))) == (0, 1)


def test_ridesharing_rewards():
    rs = models.build_ridesharing_model(models.RidesharingParams(payoffs=(1.0, 1.3, 10.0)))
    ss = rs.state_space
    assert rs.payoff(ss.encode((0, 3)), 1, 0.5) == 10.0
    assert rs.payoff(ss.encode((0, 1)), 1, 0.5) == 1.0
    assert rs.payoff(ss.encode((0, 3)), 0, 0.5) == 0.0
    assert rs.payoff(ss.encode((1, 3)), 0, 0.5) == 0.0


def test_ridesharing_availability_interaction():
    rs = models.build_ridesharing_model()
    s = PopulationState.uniform(rs.n_states)
    assert rs.interaction(s.probs, None, 0.5) == pytest.approx(0.25)


# --- social learning -------------------------------------------------------------

def test_signal_weight_and_variance():
    assert signal_weight(0) == pytest.approx(1.0 / 3.0)
    # variance at zero effort is 1/3 regardless of the precision slope, so
    # the zero-effort transition rows coincide across calibrations
    sl5 = models.build_social_learning_model(models.SocialLearningParams(gamma_prec=5.0))
    sl15 = models.build_social_learning_model(models.SocialLearningParams(gamma_prec=15.0))
    row5 = sl5.transition_row(10, 0, 0.5)
    row15 = sl15.transition_row(10, 0, 0.5)
    assert np.allclose(row5, row15)
    assert row5.sum() == pytest.approx(1.0, abs=1e-15)


def test_social_learning_rows_sum_exactly_and_center_correctly():
    sl = models.build_social_learning_model()
    p = sl.params
    for (x, a) in ((0, 0), (10, 2), (20, 5)):
        row = sl.transition_row(x, a, 0.4)
        assert row.sum() == pytest.approx(1.0, abs=1e-14)
        k = signal_weight(a)
        mu = (
            p.self_weight * (1 - k) * sl.state_space.numeric[x]
            + (1 - p.self_weight) * (1 - k) * 0.4
            + k * p.theta
        )
        mean_next = float(sl.state_space.numeric @ row)
        assert abs(mean_next - mu) <= p.grid_step


def test_social_learning_near_degenerate_noise_concentrates():
    # huge precision slope: the signal variance at max effort collapses and
    # the row concentrates near the deterministic update
    sl = models.build_social_learning_model(models.SocialLearningParams(gamma_prec=1e6))
    p = sl.params
    a = 5
    k = signal_weight(a)
    x = 10
    mu = p.self_weight * (1 - k) * 0.5 + (1 - p.self_weight) * (1 - k) * 0.4 + k * p.theta
    row = sl.transition_row(x, a, 0.4)
    target = int(np.argmin(np.abs(sl.state_space.numeric - mu)))
    assert row[target] >= 0.99


# --- reputation -----------------------------------------------------------------

def test_reputation_review_count_caps():
    rp = models.build_reputation_model()
    ss = rp.state_space
    x = ss.encode((2.5, 20))
    row = rp.transition_row(x, 1, 10.0)
    for idx in np.nonzero(row)[0]:
        rank, count = ss.decode(int(idx))
        assert count == 20


def test_reputation_fresh_seller_review():
    rp = models.build_reputation_model()
    ss = rp.state_space
    x = ss.encode((0.0, 0))
    # action 2, shock 2.5: rank snaps to 5.0, one review accumulated
    row = rp.transition_row(x, 2, 10.0)
    assert row[ss.encode((5.0, 1))] == pytest.approx(0.2)


def test_reputation_zero_investment_keeps_shrunk_rank():
    rp = models.build_reputation_model()
    ss = rp.state_space
    x = ss.encode((4.0, 3))
    row = rp.transition_row(x, 0, 10.0)
    raw = (3 / 4) * 4.0
    target_rank = round(2 * raw) / 2        # snapped to the half-point grid
    assert row[ss.encode((target_rank, 4))] == pytest.approx(1.0)


def test_reputation_population_kernel_regenerates():
    rp = models.build_reputation_model()
    ss = rp.state_space
    x = ss.encode((2.5, 20))
    row = rp.population_row_fn(x, 0, 10.0)
    assert row[ss.encode((0.0, 0))] == pytest.approx(1 - rp.discount)
    assert row.sum() == pytest.approx(1.0, abs=1e-15)
    # the regenerated chain has a unique invariant distribution
    g = StationaryPolicy(np.zeros(rp.n_states, dtype=int), 10.0)
    s = stationary_distribution(build_chain(rp, g, 10.0))
    assert s.probs.sum() == pytest.approx(1.0)


def test_reputation_individual_kernel_freezes_at_cap():
    # Without regeneration every rank is absorbing at the review cap: the
    # motivating fact for the separate population kernel.
    rp = models.build_reputation_model()
    ss = rp.state_space
    for rank in (0.0, 2.5, 5.0):
        x = ss.encode((rank, 20))
        row = rp.transition_row(x, 2, 10.0)
        ranks_next = {ss.decode(int(i))[0] for i in np.nonzero(row)[0]}
        assert ranks_next == {rank}
