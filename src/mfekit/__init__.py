"""mfekit: compute and learn stationary mean field equilibria of dynamic
games with scalar interactions."""

__version__ = "0.1.0"

from .core import (
    ActionSpace,
    ModelSpec,
    PopulationState,
    SampleView,
    ScalarBounds,
    StateSpace,
    StationaryPolicy,
    interaction_value,
    interaction_value_detailed,
    validate_model,
)
from .dp import ValueTable, bellman_backup, extract_policy, policy_iteration, value_iteration
from .chain import (
    TransitionMatrix,
    build_chain,
    ergodicity_check,
    monte_carlo_stationary,
    stationary_distribution,
)
from .equilibrium import (
    MfeSolution,
    SolverConfig,
    adaptive_vfi,
    broyden_root,
    broyden_solve,
    fixed_point_iteration,
    residual,
    solution_certificate,
)
from .learning import (
    DirectPolicy,
    LearningConfig,
    QTable,
    adaptive_policy_gradient,
    adaptive_q_learning,
    greedy_policy,
    projected_policy_gradient,
    q_learning,
    simplex_projection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
