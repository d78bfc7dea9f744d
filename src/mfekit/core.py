"""Shared game abstraction: state/action spaces, payoffs, transitions, interaction.

Every solver in this package operates on a :class:`ModelSpec`: a finite-state,
finite-action dynamic game in which agents feel the population only through a
low-dimensional aggregate of the population state (the interaction value
``m``).  States are opaque labels with dense integer indices; all numerical
work happens on indices.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)

PROB_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Interaction function returned a value whose dimension != bounds.dim."""


def _numeric_label(label) -> float:
    """Best-effort numeric value of a state label (first component for tuples)."""
    if isinstance(label, tuple):
        return float(label[0])
    try:
        return float(label)
    except (TypeError, ValueError):
        return math.nan


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Ordered set of state labels with stable integer indices.

    ``axes`` is set for product spaces (e.g. availability x request type) and
    enables round-tripping between flat indices and component tuples.
    """

    labels: tuple
    axes: Optional[tuple] = None
    numeric: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError("state space must be non-empty")
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(self.labels)})
        if len(self._index) != len(self.labels):
            raise ValueError("state labels must be unique")
        if self.numeric is None:
            vals = np.array([_numeric_label(lab) for lab in self.labels], dtype=float)
            object.__setattr__(self, "numeric", vals)

    @classmethod
    def product(cls, *axes: Sequence) -> "StateSpace":
        labels = tuple(itertools.product(*axes))
        return cls(labels=labels, axes=tuple(tuple(ax) for ax in axes))

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label) -> int:
        return self._index[label]

    def encode(self, components) -> int:
        """Flat index of a component tuple (product spaces only)."""
        if self.axes is None:
            return self.index_of(components)
        return self._index[tuple(components)]

    def decode(self, index: int):
        """Label at ``index``; for product spaces this is the component tuple."""
        return self.labels[index]


@dataclass(frozen=True, eq=False)
class ActionSpace:
    """Ordered action values plus the feasible-action correspondence.

    ``feasible[x]`` is the non-empty tuple of action indices available in
    state-index ``x``.
    """

    values: tuple
    feasible: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("action space must be non-empty")
        for x, feas in enumerate(self.feasible):
            if len(feas) == 0:
                raise ValueError(f"feasible set empty at state index {x}")
            for a in feas:
                if not 0 <= a < len(self.values):
                    raise ValueError(f"feasible action index {a} out of range at state {x}")

    @classmethod
    def uniform(cls, values: Sequence, n_states: int) -> "ActionSpace":
        """All actions feasible in every state."""
        all_idx = tuple(range(len(values)))
        return cls(values=tuple(values), feasible=tuple(all_idx for _ in range(n_states)))

    @property
    def n(self) -> int:
        return len(self.values)

    def feasible_at(self, x: int) -> tuple:
        return self.feasible[x]

    def mask(self, n_states: int) -> np.ndarray:
        """Boolean feasibility matrix of shape (n_states, n_actions)."""
        out = np.zeros((n_states, self.n), dtype=bool)
        for x in range(n_states):
            out[x, list(self.feasible[x])] = True
        return out


@dataclass(frozen=True)
class ScalarBounds:
    """Box [lo, hi] that the interaction value lives in (dim 1 for scalars)."""

    lo: float | Sequence[float]
    hi: float | Sequence[float]
    dim: int = 1

    def __post_init__(self):
        lo, hi = self.lo_vec, self.hi_vec
        if lo.shape != (self.dim,) or hi.shape != (self.dim,):
            raise ValueError("bounds shape does not match dim")
        if not np.all(lo < hi):
            raise ValueError("require lo < hi in every coordinate")

    @property
    def lo_vec(self) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.lo, dtype=float))

    @property
    def hi_vec(self) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.hi, dtype=float))

    def midpoint(self):
        mid = 0.5 * (self.lo_vec + self.hi_vec)
        return float(mid[0]) if self.dim == 1 else mid

    def clamp(self, value):
        """Componentwise projection onto the box; scalar in, scalar out."""
        arr = np.clip(np.atleast_1d(np.asarray(value, dtype=float)), self.lo_vec, self.hi_vec)
        return float(arr[0]) if self.dim == 1 else arr

    def contains(self, value, atol: float = 0.0) -> bool:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
        return bool(np.all(arr >= self.lo_vec - atol) and np.all(arr <= self.hi_vec + atol))


@dataclass
class PopulationState:
    """Probability vector over state indices."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)

    def validate(self, n_states: Optional[int] = None) -> None:
        if n_states is not None and self.probs.shape != (n_states,):
            raise ValueError(f"expected {n_states} probabilities, got {self.probs.shape}")
        if np.any(self.probs < -PROB_TOL):
            raise ValueError("population state has negative entries")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"population state sums to {total!r}, not 1")

    @classmethod
    def uniform(cls, n_states: int) -> "PopulationState":
        return cls(np.full(n_states, 1.0 / n_states))

    @classmethod
    def point_mass(cls, n_states: int, x: int) -> "PopulationState":
        probs = np.zeros(n_states)
        probs[x] = 1.0
        return cls(probs)

    def mean(self, numeric: np.ndarray) -> float:
        return float(np.dot(numeric, self.probs))

    def variance(self, numeric: np.ndarray) -> float:
        mu = self.mean(numeric)
        return float(np.dot((numeric - mu) ** 2, self.probs))


@dataclass
class StationaryPolicy:
    """Map state-index -> feasible action-index, computed at a fixed m."""

    actions: np.ndarray
    m: float | np.ndarray

    def __post_init__(self):
        self.actions = np.asarray(self.actions, dtype=int)

    def validate(self, model: "ModelSpec") -> None:
        if self.actions.shape != (model.state_space.n,):
            raise ValueError("policy length does not match state space")
        for x, a in enumerate(self.actions):
            if a not in model.action_space.feasible_at(x):
                raise ValueError(f"policy action {a} infeasible at state index {x}")


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A finite dynamic game with scalar (or low-dimensional) interaction.

    The callables must be pure given their inputs (plus the caller-owned rng
    for the sampling variants), which makes a ModelSpec safe to share across
    concurrently running solvers.

    transition_row(x, a, m) enumerates the law of the next state as a dense
    probability vector; transition_sample(x, a, m, rng) draws one next state
    from the same law.  interaction(probs, action_idx, m) evaluates the
    aggregate; it receives the policy's action indices because some models
    (inventory) aggregate over actions, and may ignore them.  payoff_sample,
    when present, returns one draw of (realized reward, next state) and is
    the only reward channel model-free learners may use.

    regeneration = (survival, entry_state), when set, makes the population's
    law differ from the individual's: in regenerative markets (reputation) an
    agent survives each period with probability survival and its slot
    otherwise restarts at entry_state.  That churn shapes the invariant
    distribution even though the individual problem absorbs it into the
    discount factor.  population_row_fn and population_sample_fn derive both
    population kernels from it; without it they are the individual kernel.
    """

    name: str
    state_space: StateSpace
    action_space: ActionSpace
    discount: float
    payoff: Callable[[int, int, object], float]
    transition_row: Callable[[int, int, object], np.ndarray]
    transition_sample: Callable[[int, int, object, np.random.Generator], int]
    interaction: Callable[[np.ndarray, Optional[np.ndarray], object], object]
    bounds: ScalarBounds
    payoff_sample: Optional[Callable] = None
    regeneration: Optional[tuple[float, int]] = None
    params: object = None

    def __post_init__(self):
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if len(self.action_space.feasible) != self.state_space.n:
            raise ValueError("feasible correspondence length != number of states")
        if self.regeneration is not None:
            survival, entry_state = self.regeneration
            if not 0.0 < survival < 1.0:
                raise ValueError("regeneration survival must lie in (0, 1)")
            if not 0 <= entry_state < self.state_space.n:
                raise ValueError(f"regeneration entry state {entry_state} out of range")

    @property
    def n_states(self) -> int:
        return self.state_space.n

    @property
    def n_actions(self) -> int:
        return self.action_space.n

    @property
    def population_row_fn(self) -> Callable:
        if self.regeneration is None:
            return self.transition_row
        survival, entry_state = self.regeneration
        transition_row = self.transition_row

        def population_row(x, a, m):
            row = survival * transition_row(x, a, m)
            row[entry_state] += 1.0 - survival
            return row

        return population_row

    @property
    def population_sample_fn(self) -> Callable:
        if self.regeneration is None:
            return self.transition_sample
        survival, entry_state = self.regeneration
        transition_sample = self.transition_sample

        def population_sample(x, a, m, rng):
            if rng.random() >= survival:
                return entry_state
            return transition_sample(x, a, m, rng)

        return population_sample


class SampleView:
    """Restricted view of a model for model-free learners.

    Exposes only the simulator surface (payoff_sample, transition_sample) and
    structural data; the enumerated transition law and the expected payoff are
    deliberately absent so that learning code cannot read them.
    """

    __slots__ = (
        "name",
        "state_space",
        "action_space",
        "discount",
        "bounds",
        "interaction",
        "payoff_sample",
        "transition_sample",
        "population_sample_fn",
    )

    def __init__(self, model: ModelSpec):
        if model.payoff_sample is None:
            raise ValueError(f"model {model.name!r} exposes no payoff_sample simulator")
        self.name = model.name
        self.state_space = model.state_space
        self.action_space = model.action_space
        self.discount = model.discount
        self.bounds = model.bounds
        self.interaction = model.interaction
        self.payoff_sample = model.payoff_sample
        self.transition_sample = model.transition_sample
        self.population_sample_fn = model.population_sample_fn

    @property
    def n_states(self) -> int:
        return self.state_space.n

    @property
    def n_actions(self) -> int:
        return self.action_space.n


def as_sample_view(model) -> SampleView:
    return model if isinstance(model, SampleView) else SampleView(model)


def interaction_value_detailed(
    model: ModelSpec,
    s: PopulationState,
    g: Optional[StationaryPolicy],
    m,
):
    """Evaluate the interaction function at (s, g).

    Returns (clamped value, raw vector, clamp flag).  Out-of-bounds raw
    values are clamped rather than rejected (transient iterates of learning
    algorithms can overshoot analytic bounds); every clamp is logged.  Raises
    DimensionMismatchError if the model returns the wrong dimension.
    """
    probs = np.asarray(s.probs, dtype=float)
    action_idx = None if g is None else np.asarray(g.actions, dtype=int)
    raw = model.interaction(probs, action_idx, m)
    arr = np.atleast_1d(np.asarray(raw, dtype=float))
    if arr.shape != (model.bounds.dim,):
        raise DimensionMismatchError(
            f"interaction returned shape {arr.shape}, bounds.dim={model.bounds.dim}"
        )
    clamped = np.clip(arr, model.bounds.lo_vec, model.bounds.hi_vec)
    was_clamped = bool(np.any(clamped != arr))
    if was_clamped:
        logger.warning(
            "interaction value %s clamped to %s for model %s", arr, clamped, model.name
        )
    value = float(clamped[0]) if model.bounds.dim == 1 else clamped
    return value, arr, was_clamped


def interaction_value(
    model: ModelSpec,
    s: PopulationState,
    g: Optional[StationaryPolicy],
    m,
):
    """Clamped interaction value at (s, g); see interaction_value_detailed."""
    value, _, _ = interaction_value_detailed(model, s, g, m)
    return value


def _m_grid(bounds: ScalarBounds):
    lo, hi = bounds.lo_vec, bounds.hi_vec
    mids = [lo, 0.5 * (lo + hi), hi]
    if bounds.dim == 1:
        return [float(v[0]) for v in mids]
    return mids


def validate_model(model: ModelSpec) -> list[str]:
    """Full-scan validation of the ModelSpec invariants.

    Scans every (x, a in feasible(x)) pair at m in {lo, mid, hi}: each
    transition row must be a probability vector, every payoff finite, and the
    interaction must land inside the bounds for a handful of stress
    distributions.  Violations are returned as data (a list of messages), not
    raised.
    """
    report: list[str] = []
    n = model.state_space.n

    for x in range(n):
        feas = model.action_space.feasible_at(x)
        if len(feas) == 0:
            report.append(f"state {x}: empty feasible set")
        for a in feas:
            if not 0 <= a < model.action_space.n:
                report.append(f"state {x}: feasible action index {a} out of range")

    kernels = [("transition_row", model.transition_row)]
    if model.regeneration is not None:
        kernels.append(("population_row", model.population_row_fn))

    for m in _m_grid(model.bounds):
        for x in range(n):
            for a in model.action_space.feasible_at(x):
                for kernel_name, kernel in kernels:
                    row = np.asarray(kernel(x, a, m), dtype=float)
                    if row.shape != (n,):
                        report.append(f"{kernel_name}({x},{a},m={m}): wrong length {row.shape}")
                        continue
                    if np.any(row < 0):
                        report.append(f"{kernel_name}({x},{a},m={m}): negative entry")
                    total = float(row.sum())
                    if abs(total - 1.0) > PROB_TOL:
                        report.append(
                            f"{kernel_name}({x},{a},m={m}): sums to {total:.15g} "
                            f"(deficit {1.0 - total:+.3e})"
                        )
                pay = model.payoff(x, a, m)
                if not math.isfinite(pay):
                    report.append(f"payoff({x},{a},m={m}) = {pay!r} is not finite")

    # Interaction range: stress with uniform and the extreme point masses,
    # paired with a lowest-index feasible policy.
    g = StationaryPolicy(
        np.array([model.action_space.feasible_at(x)[0] for x in range(n)]),
        m=model.bounds.midpoint(),
    )
    for s in (
        PopulationState.uniform(n),
        PopulationState.point_mass(n, 0),
        PopulationState.point_mass(n, n - 1),
    ):
        raw = model.interaction(s.probs, g.actions, model.bounds.midpoint())
        arr = np.atleast_1d(np.asarray(raw, dtype=float))
        if arr.shape != (model.bounds.dim,):
            report.append(f"interaction returned shape {arr.shape}, expected ({model.bounds.dim},)")
        elif not model.bounds.contains(arr, atol=1e-9):
            report.append(f"interaction value {arr} outside bounds [{model.bounds.lo}, {model.bounds.hi}]")

    return report
