"""Design-space autotuner: deterministic black-box search over the
HoPP configuration space (HPD geometry, STT, policy, placement, memory
tiers), riding the exec engine so every evaluation is cached, parallel,
and resumable.  See docs/architecture.md section 16.
"""

from repro.tune.objective import (
    Constraint,
    Objective,
    ObjectiveError,
    extract_metrics,
    pareto_front,
)
from repro.tune.report import (
    best_config_report,
    render_trajectory,
    trajectory_rows,
    write_report,
)
from repro.tune.space import (
    CatParam,
    FloatParam,
    IntParam,
    SearchSpace,
    SpaceError,
    build_space,
    default_config,
    register_space,
    space_names,
    to_run_spec,
)
from repro.tune.strategy import (
    Evolutionary,
    RandomSearch,
    Strategy,
    StrategyError,
    SuccessiveHalving,
    Trial,
    TrialRequest,
    strategy_names,
)
from repro.tune.tuner import FidelitySpec, TuneError, TuneResult, Tuner

__all__ = [
    "CatParam",
    "Constraint",
    "Evolutionary",
    "FidelitySpec",
    "FloatParam",
    "IntParam",
    "Objective",
    "ObjectiveError",
    "RandomSearch",
    "SearchSpace",
    "SpaceError",
    "Strategy",
    "StrategyError",
    "SuccessiveHalving",
    "Trial",
    "TrialRequest",
    "TuneError",
    "TuneResult",
    "Tuner",
    "best_config_report",
    "build_space",
    "default_config",
    "extract_metrics",
    "pareto_front",
    "register_space",
    "render_trajectory",
    "space_names",
    "strategy_names",
    "to_run_spec",
    "trajectory_rows",
    "write_report",
]
