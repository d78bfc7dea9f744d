import numpy as np
import pytest

from mfekit import models
from mfekit.core import PopulationState, ScalarBounds
from mfekit.equilibrium import (
    BracketError,
    ResidualEval,
    SolverConfig,
    adaptive_vfi,
    bisect_residual,
    broyden_root,
    broyden_solve,
    fixed_point_iteration,
    residual,
    solution_certificate,
)


def toy_cfg():
    return SolverConfig(**models.solver_defaults("two-state-toy"))


def test_residual_toy_values(toy_model):
    assert residual(toy_model, 0.3).f == pytest.approx(-0.4)
    assert residual(toy_model, 0.5).f == pytest.approx(0.0, abs=1e-15)
    # analytically f(m) = 2m - 1
    for m in (0.1, 0.25, 0.8):
        assert residual(toy_model, m).f == pytest.approx(2 * m - 1.0, abs=1e-12)


def test_adaptive_vfi_toy(toy_model):
    sol = adaptive_vfi(toy_model, toy_cfg())
    assert sol.converged
    assert sol.m_star == pytest.approx(0.5, abs=1e-8)
    assert sol.iterations <= 30


def test_adaptive_vfi_traces_bracket_halving(toy_model):
    cfg = SolverConfig(bracket_tol=1e-4, residual_tol=1e-15)
    sol = adaptive_vfi(toy_model, cfg)
    mids = [e for e in sol.trace if e["kind"] == "midpoint"]
    widths = [e["hi"] - e["lo"] for e in mids]
    for w0, w1 in zip(widths, widths[1:]):
        assert w1 == pytest.approx(w0 / 2.0)
    # bracket invariant: the root stays inside
    for e in mids:
        assert e["lo"] <= 0.5 <= e["hi"]


def test_adaptive_vfi_rejects_unbracketed_root(toy_model):
    import dataclasses

    skew = dataclasses.replace(
        toy_model, interaction=lambda s, g, m: 0.0, bounds=ScalarBounds(0.25, 1.0)
    )
    # f(m) = m - 0 > 0 at both endpoints: no sign change
    with pytest.raises(BracketError) as exc:
        adaptive_vfi(skew, toy_cfg())
    assert "f(0.25)" in str(exc.value) and "f(1.0)" in str(exc.value)


def test_adaptive_vfi_requires_scalar_interaction(toy_model):
    import dataclasses

    vector = dataclasses.replace(
        toy_model,
        interaction=lambda s, g, m: np.array([s[1], s[0]]),
        bounds=ScalarBounds([0.0, 0.0], [1.0, 1.0], dim=2),
    )
    with pytest.raises(ValueError, match="scalar"):
        adaptive_vfi(vector, toy_cfg())


def test_residual_small_at_reference_capacity_equilibrium(capacity_model):
    # |f| evaluated at the reference equilibrium value itself
    ev = residual(capacity_model, 6.798)
    assert abs(ev.f) <= 1e-3


def test_adaptive_vfi_deterministic_traces(capacity_model):
    cfg = SolverConfig(**models.solver_defaults("capacity"))
    a = adaptive_vfi(capacity_model, cfg)
    b = adaptive_vfi(capacity_model, cfg)
    assert a.trace == b.trace
    assert a.m_star == b.m_star


def test_fixed_point_oscillates_on_toy(toy_model):
    sol = fixed_point_iteration(
        toy_model, PopulationState(np.array([0.3, 0.7])), max_iters=1000, tol=1e-6,
    )
    assert not sol.converged
    pops = sol.extras["population_trace"]
    assert len(pops) == 1001
    # period-2 oscillation (up to float round-off), never settling
    for t in range(0, 990, 2):
        assert np.allclose(pops[t], pops[t + 2], atol=1e-12)
        assert np.abs(pops[t + 1] - pops[t]).sum() > 1e-6
    assert np.allclose(pops[1], [0.7, 0.3])


def test_fixed_point_converges_from_equilibrium(toy_model):
    sol = fixed_point_iteration(
        toy_model, PopulationState(np.array([0.5, 0.5])), max_iters=50, tol=1e-10,
    )
    assert sol.converged
    assert sol.iterations == 1
    assert sol.m_star == pytest.approx(0.5)


def test_fixed_point_converges_from_mfe_population(capacity_model):
    cfg = SolverConfig(**models.solver_defaults("capacity"))
    ref = adaptive_vfi(capacity_model, cfg)
    sol = fixed_point_iteration(capacity_model, ref.population, max_iters=5, tol=1e-6, cfg=cfg)
    assert sol.converged
    assert sol.iterations <= 2


def test_broyden_linear_map_one_newton_step():
    root = np.array([0.5, 0.5])
    m, f, trace, converged, restarts, evals = broyden_root(
        lambda v: v - root, m0=np.zeros(2), lo=np.zeros(2), hi=np.ones(2),
        residual_tol=1e-12, max_iters=10,
    )
    assert converged
    assert np.allclose(m, root, atol=1e-12)
    assert evals <= 2  # identity Jacobian: the first Newton step is exact


def test_broyden_affine_exactness_low_dims():
    # Secant exactness on affine maps: the root is reached within dim + 2
    # iterations (the classical 2n bound equals dim + 2 at these dims).
    rng = np.random.default_rng(5)
    for dim in (1, 2):
        for trial in range(12):
            A = rng.normal(size=(dim, dim)) + np.eye(dim) * (dim + 1)
            root = rng.uniform(-0.5, 0.5, size=dim)
            m0 = rng.uniform(-0.5, 0.5, size=dim)
            m, f, trace, converged, restarts, evals = broyden_root(
                lambda v: A @ (v - root),
                m0=m0, lo=np.full(dim, -1e6), hi=np.full(dim, 1e6),
                residual_tol=1e-9, max_iters=50,
            )
            iterations = evals - 1   # steps taken after evaluating f(m0)
            assert converged, (dim, trial)
            assert iterations <= dim + 2, (dim, trial, iterations)


def test_broyden_restarts_on_stalled_step():
    calls = {"n": 0}

    def f(v):
        calls["n"] += 1
        return np.array([np.sign(v[0] - 0.3) * 1.0 if abs(v[0] - 0.3) > 1e-12 else 0.0])

    # Step projects outside then clamps back to the same point: theta = 0
    m, fv, trace, converged, restarts, evals = broyden_root(
        f, m0=np.array([1.0]), lo=np.array([0.0]), hi=np.array([1.0]),
        residual_tol=1e-6, max_iters=8,
    )
    assert restarts >= 1


def test_broyden_solve_toy_agrees_with_bisection(toy_model):
    cfg = SolverConfig(residual_tol=1e-8, max_outer=60)
    sol = broyden_solve(toy_model, cfg, m0=0.1)
    assert sol.converged
    assert sol.m_star == pytest.approx(0.5, abs=1e-7)


def test_broyden_two_dimensional_capacity_variant(capacity_model):
    import dataclasses

    # Second aggregate (scaled second moment) feeds back into nothing the
    # payoff reads, so the scalar solver is the oracle for component 1.
    xs = np.arange(capacity_model.n_states, dtype=float)

    def interaction2(probs, action_idx, m):
        return np.array([xs @ probs, (xs**2 / 39.0) @ probs])

    base_payoff = capacity_model.payoff
    model2 = dataclasses.replace(
        capacity_model,
        payoff=lambda x, a, m: base_payoff(x, a, np.atleast_1d(m)[0]),
        transition_row=lambda x, a, m: capacity_model.transition_row(x, a, np.atleast_1d(m)[0]),
        transition_sample=lambda x, a, m, rng: capacity_model.transition_sample(x, a, np.atleast_1d(m)[0], rng),
        interaction=interaction2,
        bounds=ScalarBounds([0.0, 0.0], [39.0, 39.0], dim=2),
    )
    scalar = adaptive_vfi(capacity_model, SolverConfig(**models.solver_defaults("capacity")))
    cfg = SolverConfig(residual_tol=1e-3, max_outer=80)
    sol = broyden_solve(model2, cfg, m0=np.array([5.0, 1.0]))
    assert sol.converged
    assert np.linalg.norm(np.atleast_1d(sol.residual)) < 1e-3
    assert abs(sol.m_star[0] - scalar.m_star) < 0.1


def test_certificate_passes_on_fresh_solutions(all_models):
    for name, model in all_models.items():
        cfg = SolverConfig(**models.solver_defaults(name))
        sol = adaptive_vfi(model, cfg)
        assert sol.converged, name
        report = solution_certificate(model, sol, cfg=cfg)
        assert report.ok, (name, report.checks)
        assert sol.consistency_residual <= 1e-10, name


def test_certificate_detects_perturbed_m(toy_model):
    sol = adaptive_vfi(toy_model, toy_cfg())
    sol.m_star = sol.m_star + 0.1
    report = solution_certificate(toy_model, sol, cfg=toy_cfg())
    assert not report.ok
    assert "interaction" in report.failures()


def test_certificate_detects_tampered_population(capacity_model):
    cfg = SolverConfig(**models.solver_defaults("capacity"))
    sol = adaptive_vfi(capacity_model, cfg)
    probs = sol.population.probs.copy()
    probs[[0, -1]] = probs[[-1, 0]]
    sol.population = PopulationState(probs)
    report = solution_certificate(capacity_model, sol, cfg=cfg)
    assert not report.ok
    assert "consistency" in report.failures()


def test_dead_zone_bisection_preserves_bracket_under_bounded_noise(toy_model):
    # If the sampled residual stays within delta of the truth, a dead-zone
    # update can never cut the root out of the bracket.
    delta = 0.05
    rng = np.random.default_rng(123)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        m = 0.5 * (lo + hi)
        f_true = 2 * m - 1.0
        f_hat = f_true + rng.uniform(-delta, delta)
        if abs(f_hat) <= delta:
            pass
        elif f_hat > delta:
            hi = m
        else:
            lo = m
        assert lo <= 0.5 <= hi
        assert 2 * lo - 1.0 <= 0.0 <= 2 * hi - 1.0


def test_bisect_residual_keeps_the_root_under_noise_within_residual_tol():
    # The shipped loop on f(m) = 2m - 1 plus noise of at most delta: no
    # dead-zone move cuts the root 0.5 out of the bracket, and without a
    # bracket tolerance the width never stops the loop.
    delta = 0.05
    rng = np.random.default_rng(123)

    def noisy(noise):
        def evaluate(m):
            f_true = 2 * m - 1.0
            return ResidualEval(m=m, f=f_true + noise(f_true), policy=None, population=None, m_of_s=None)
        return evaluate

    cfg = SolverConfig(residual_tol=delta, max_outer=60)
    for _ in range(10):
        trace = []
        _, stop_reason, _ = bisect_residual(noisy(lambda f: rng.uniform(-delta, delta)), 0.1, 1.0, cfg, trace)
        assert all(row["lo"] <= 0.5 <= row["hi"] for row in trace)
        assert stop_reason in ("residual", "max_outer")

    # Noise of size delta on f's side keeps every draw outside the dead zone,
    # so the loop runs its whole budget with the bracket far below the
    # default bracket_tol.
    cfg = SolverConfig(residual_tol=delta, max_outer=40)
    trace = []
    _, stop_reason, outer = bisect_residual(noisy(lambda f: delta * np.sign(f)), 0.1, 1.0, cfg, trace)
    assert (stop_reason, outer, len(trace)) == ("max_outer", 40, 40)
    assert all(row["lo"] <= 0.5 <= row["hi"] for row in trace)
    assert trace[-1]["hi"] - trace[-1]["lo"] < SolverConfig().bracket_tol
