"""Builders for the built-in games, plus a name-based registry.

Every builder turns a validated parameter record (defaults match the
simulation calibrations the package reproduces) into a ModelSpec; sweeps and
the CLI refer to models by name so that work units stay picklable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ._support import params_from_dict, params_to_dict
from .inventory import (
    InventoryParams,
    baseline_demand_distribution,
    build_inventory_model,
    inventory_demand,
    platform_revenue,
)
from .oligopoly import (
    CapacityParams,
    QualityLadderParams,
    build_capacity_model,
    build_quality_ladder_model,
)
from .reputation import ReputationParams, build_reputation_model
from .ridesharing import RidesharingParams, build_ridesharing_model
from .social_learning import SocialLearningParams, build_social_learning_model
from .toy import TwoStateToyParams, build_two_state_toy

__all__ = [
    "InventoryParams",
    "CapacityParams",
    "QualityLadderParams",
    "ReputationParams",
    "RidesharingParams",
    "SocialLearningParams",
    "TwoStateToyParams",
    "baseline_demand_distribution",
    "build_inventory_model",
    "build_capacity_model",
    "build_quality_ladder_model",
    "build_reputation_model",
    "build_ridesharing_model",
    "build_social_learning_model",
    "build_two_state_toy",
    "inventory_demand",
    "platform_revenue",
    "REGISTRY",
    "build_model",
    "model_names",
]


@dataclass(frozen=True)
class ModelEntry:
    params_cls: type
    builder: Callable
    # Solver tolerances that make sense for this model's scale; CLI and
    # sweeps start from these and apply user overrides on top.
    solver_defaults: dict


REGISTRY: dict[str, ModelEntry] = {
    "two-state-toy": ModelEntry(
        TwoStateToyParams,
        build_two_state_toy,
        {"bracket_tol": 1e-10, "residual_tol": 1e-8},
    ),
    "inventory": ModelEntry(
        InventoryParams,
        build_inventory_model,
        {"bracket_tol": 1e-5, "residual_tol": 1e-3},
    ),
    "capacity": ModelEntry(
        CapacityParams,
        build_capacity_model,
        {"bracket_tol": 1.2e-3, "residual_tol": 1e-3},
    ),
    "quality-ladder": ModelEntry(
        QualityLadderParams,
        build_quality_ladder_model,
        {"bracket_tol": 1e-4, "residual_tol": 1e-3},
    ),
    "ridesharing": ModelEntry(
        RidesharingParams,
        build_ridesharing_model,
        {"bracket_tol": 1e-6, "residual_tol": 1e-4},
    ),
    "social-learning": ModelEntry(
        SocialLearningParams,
        build_social_learning_model,
        {"bracket_tol": 1e-6, "residual_tol": 1e-3},
    ),
    "reputation": ModelEntry(
        ReputationParams,
        build_reputation_model,
        {"bracket_tol": 1e-3, "residual_tol": 1e-3},
    ),
}


def model_names() -> list[str]:
    return sorted(REGISTRY)


def build_model(name: str, params: Optional[dict] = None):
    """Build a registered model from a parameter mapping (unknown keys error)."""
    if name not in REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {model_names()}")
    entry = REGISTRY[name]
    record = params_from_dict(entry.params_cls, dict(params or {}))
    return entry.builder(record)


def default_params(name: str) -> dict:
    if name not in REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {model_names()}")
    return params_to_dict(REGISTRY[name].params_cls())


def solver_defaults(name: str) -> dict:
    if name not in REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {model_names()}")
    return dict(REGISTRY[name].solver_defaults)
