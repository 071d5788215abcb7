"""Interpretable spatiotemporal state variables for football tactics.

From synchronized tracking/event data: velocity-aware dominance regions and
weighted space scores, pass-success feature tables, an in-repo gradient-
boosted tree classifier, and exact Shapley attributions.
"""

from .pitch import (
    PitchSpec,
    Point2,
    WeightParams,
    goal_distance_angle,
    normalize_attack_direction,
)
from .dominance import (
    ATTACKING,
    DEFENDING,
    DominanceField,
    MotionParams,
    PlayerState,
    SpaceScoreTable,
    arrival_time,
    compute_dominance_grid,
    directional_space_deltas,
    offside_positions,
    space_scores,
)
from .match_io import (
    AttackSequence,
    MatchEvent,
    SchemaError,
    TrackedFrame,
    detect_kickoff_frame,
    load_match,
    save_match,
    segment_attack_sequences,
)
from .synth import SynthConfig, synthesize_match
from .features import (
    HolderOnBall,
    OffBallFeatures,
    PassSampleTable,
    build_dataset,
    offball_features,
    onball_features,
    passline_interception_time,
    select_top_n,
)
from .gbdt import (
    GbdtHyperParams,
    GbdtModel,
    MetricsReport,
    classification_metrics,
    compare_ranking_variables,
    grid_search_cv,
    predict_proba,
    train_gbdt,
)
from .explain import (
    ImportanceSummary,
    ShapExplanation,
    shap_summary,
    tree_shap,
)
from .render_svg import RenderOptions, render_frame_svg
from .config import RunConfig, load_config

__version__ = "0.1.0"
