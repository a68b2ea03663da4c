"""Dynamic multi-battle Blotto contests.

Exact evaluation of pure strategy profiles, proportional-play deviation
analysis, numerical backward-induction equilibria for two-player
win-probability contests, and seeded Monte Carlo simulation.
"""

from .core import (
    BUDGET_TOLERANCE,
    BattleRecord,
    ContestError,
    ContestSpec,
    ContractError,
    ConvergenceError,
    CsfParams,
    EnumerationCapError,
    History,
    InfeasibleHistoryError,
    InputError,
    Objective,
    TerminalStatus,
    check_history,
    csf_probability,
    is_guaranteed_loser,
    remaining_budget,
    terminal_payoff,
    terminal_status,
    validate_spec,
)
from .evaluation import (
    DeviationReport,
    ProportionalityVerdict,
    SamplingPlan,
    check_proportionality,
    closed_form_gain,
    deviation_gain,
    deviation_gains,
    deviation_grid,
    expected_payoffs,
    marginal_gain,
)
from .equilibrium import (
    BackwardSolveResult,
    BestResponseResult,
    SolverSettings,
    StageSolution,
    best_response,
    solve_backward,
    stage_equilibrium,
)
from .montecarlo import SimulationResult, simulate
from .strategies import (
    Deviation,
    Proportional,
    PROPORTIONAL,
    Strategy,
    StrategyProfile,
    allocations_at,
    history_from_winners,
    one_shot_deviation,
    proportional_allocation,
    proportional_profile,
    reach_probability,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
