"""Searching for a target in R^d guided by noisy distance predictions.

The package provides the geometric primitives, deterministic covering nets,
prediction oracles, contraction-based search strategies, the adaptive
adversary with its bound formulas, and a CLI harness that audits every run
against the theoretical guarantees.
"""

from .geometry import (
    Ball,
    Point,
    cumulative_lengths,
    distance,
    origin,
    path_length,
    point,
    sample_in_ball,
)
from .nets import (
    CandidateCapExceeded,
    CoverReport,
    Net,
    build_net,
    check_covering,
    check_separation,
    net_size_lower_bound,
    net_size_upper_bound,
    separated_set,
    visit_order,
)
from .oracles import (
    ORACLE_KINDS,
    OracleSpec,
    PredictionOracle,
    QueryRecorder,
    infer_lipschitz,
    piecewise_predictions,
    refined_query,
)
from .strategies import (
    STRATEGY_KINDS,
    GuessTooSmallError,
    QueryBudgetExceeded,
    SearchTrace,
    StepOutcome,
    StepRecord,
    StrategyConfig,
    one_step,
    run_strategy,
    step_length_bound,
    trilaterate,
)
from .svg import render_svg
from .verification import (
    AdversarialInstance,
    ExperimentReport,
    adversarial_path_floor,
    audit_trace,
    bound_lower,
    bound_upper_known,
    bound_upper_unknown,
    build_adversarial_instance,
    count_visited_balls,
    doubling_cap,
    replay_consistent,
    tsp_ball_lower_bound,
)

__version__ = "0.1.0"
