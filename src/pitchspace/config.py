"""Flat key-value run configuration.

The config file is line-oriented `key = value` text with `#` comments. Every
key mirrors a RunConfig field; unknown keys are rejected so typos surface
immediately. List-valued model keys (comma separated) span the search grid.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .dominance import MotionParams
from .features import FAST_SPACE_SEMANTICS, RANKING_VARIABLES
from .gbdt import GbdtHyperParams
from .pitch import PitchSpec, WeightParams
from .synth import RULE_FEATURES, SynthConfig


class ConfigError(ValueError):
    """Bad configuration file or value."""


@dataclass
class RenderConfig:
    show_voronoi_boundaries: bool = False
    show_scores: bool = True
    colormap_min: float | None = None
    colormap_max: float | None = None


@dataclass
class RunConfig:
    pitch: PitchSpec = dc_field(default_factory=PitchSpec)
    motion: MotionParams = dc_field(default_factory=MotionParams)
    weight: WeightParams = dc_field(default_factory=WeightParams)
    feature_n: int = 3
    ranking_variable: str = "dist_ball"
    fast_space_vel_semantics: str = "current"
    infinite_rank: str = "first"  # first | last | both
    grid: list[GbdtHyperParams] = dc_field(default_factory=lambda: _build_grid({}))
    cv_k: int = 5
    cv_seed: int = 17
    threshold: float = 0.5
    synth: SynthConfig = dc_field(default_factory=SynthConfig)
    render: RenderConfig = dc_field(default_factory=RenderConfig)
    paths: dict = dc_field(default_factory=dict)

    @property
    def infinite_times_first(self) -> bool:
        return self.infinite_rank != "last"


_GRID_DEFAULTS = {
    "max_depth": [3, 5],
    "learning_rate": [0.1, 0.3],
    "n_trees": [50, 100, 200],
    "l2_lambda": [1.0],
    "gamma": [0.0],
    "subsample": [1.0],
    "min_child_weight": [0.0],
}


def _build_grid(overrides: dict[str, list]) -> list[GbdtHyperParams]:
    axes = {k: overrides.get(k, v) for k, v in _GRID_DEFAULTS.items()}
    # product() varies the last axis fastest, as nested loops in key order would
    return [
        GbdtHyperParams(
            n_trees=int(n_trees),
            max_depth=int(max_depth),
            learning_rate=float(learning_rate),
            min_child_weight=float(mcw),
            l2_lambda=float(l2_lambda),
            gamma=float(gamma),
            subsample=float(subsample),
        )
        for max_depth, learning_rate, n_trees, l2_lambda, gamma, subsample, mcw
        in itertools.product(*axes.values())
    ]


_RULE_TERM = re.compile(r"([+-]?)\s*(\d*\.?\d+)(?:\s*\*\s*([A-Za-z_]\w*))?\s*")


def parse_rule(text: str) -> tuple[float, dict[str, float]]:
    """Parse a logistic rule like "2.0 - 0.2*dist_ball" into (intercept, coeffs)."""
    intercept = 0.0
    coeffs: dict[str, float] = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _RULE_TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ConfigError(f"cannot parse rule term at {text[pos:]!r}")
        sign = -1.0 if m.group(1) == "-" else 1.0
        value = sign * float(m.group(2))
        name = m.group(3)
        if name is None:
            intercept += value
        else:
            if name not in RULE_FEATURES:
                raise ConfigError(f"rule feature {name!r} not in {RULE_FEATURES}")
            coeffs[name] = coeffs.get(name, 0.0) + value
        pos = m.end()
    return intercept, coeffs


def _parse_bool(value: str, key: str) -> bool:
    v = value.lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_float_list(value: str) -> list[float]:
    return [float(v.strip()) for v in value.split(",") if v.strip()]


def parse_config(text: str) -> RunConfig:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = value

    def pop(key: str, default: str | None = None) -> str | None:
        return values.pop(key, default)

    try:
        pitch = PitchSpec(
            length=float(pop("pitch.length", "105")),
            width=float(pop("pitch.width", "68")),
            grid_cell=float(pop("pitch.grid_cell", "0.5")),
        )
        motion = MotionParams(
            reaction_time=float(pop("motion.reaction_time", "0.2")),
            max_speed=float(pop("motion.max_speed", "7.8")),
        )
        weight = WeightParams(beta=float(pop("weight.beta", "0.5")))

        feature_n = int(pop("feature.n", "3"))
        if feature_n < 1:
            raise ConfigError("feature.n must be >= 1")
        ranking_variable = pop("feature.ranking_variable", "dist_ball")
        if ranking_variable not in RANKING_VARIABLES:
            raise ConfigError(f"feature.ranking_variable must be one of {RANKING_VARIABLES}")
        semantics = pop("feature.fast_space_vel", "current")
        if semantics not in FAST_SPACE_SEMANTICS:
            raise ConfigError(f"feature.fast_space_vel must be one of {FAST_SPACE_SEMANTICS}")
        infinite_rank = pop("feature.infinite_rank", "first")
        if infinite_rank not in ("first", "last", "both"):
            raise ConfigError("feature.infinite_rank must be first, last, or both")

        overrides = {}
        for axis in _GRID_DEFAULTS:
            raw_axis = pop(f"model.{axis}")
            if raw_axis is not None:
                overrides[axis] = _parse_float_list(raw_axis)
        grid = _build_grid(overrides)

        cv_k = int(pop("cv.k", "5"))
        cv_seed = int(pop("cv.seed", "17"))
        threshold = float(pop("metrics.threshold", "0.5"))

        intercept, coeffs = parse_rule(pop("synth.rule", "2.0 - 0.2*dist_ball"))
        synth = SynthConfig(
            attackers=int(pop("synth.attackers", "10")),
            defenders=int(pop("synth.defenders", "10")),
            passes=int(pop("synth.passes", "200")),
            noise=float(pop("synth.noise", "0.0")),
            rule_intercept=intercept,
            rule_coeffs=coeffs,
            empty_defense_rate=float(pop("synth.empty_defense_rate", "0.05")),
            opponent_pass_rate=float(pop("synth.opponent_pass_rate", "0.0")),
            receiver_mode=pop("synth.receiver_mode", "nearest"),
            kickoff_frames=int(pop("synth.kickoff_frames", "120")),
            frame_rate=float(pop("synth.frame_rate", "10.0")),
            frame_offset=int(pop("synth.frame_offset", "0")),
        )

        cm_min = pop("render.colormap_min")
        cm_max = pop("render.colormap_max")
        render = RenderConfig(
            show_voronoi_boundaries=_parse_bool(
                pop("render.show_voronoi_boundaries", "false"), "render.show_voronoi_boundaries"
            ),
            show_scores=_parse_bool(pop("render.show_scores", "true"), "render.show_scores"),
            colormap_min=float(cm_min) if cm_min is not None else None,
            colormap_max=float(cm_max) if cm_max is not None else None,
        )

        paths = {}
        for key in ("tracking", "events"):
            v = pop(f"paths.{key}")
            if v is not None:
                paths[key] = v
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if values:
        raise ConfigError(f"unknown config keys: {sorted(values)}")
    return RunConfig(
        pitch=pitch,
        motion=motion,
        weight=weight,
        feature_n=feature_n,
        ranking_variable=ranking_variable,
        fast_space_vel_semantics=semantics,
        infinite_rank=infinite_rank,
        grid=grid,
        cv_k=cv_k,
        cv_seed=cv_seed,
        threshold=threshold,
        synth=synth,
        render=render,
        paths=paths,
    )


def load_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig()
    text = Path(path).read_text(encoding="utf-8")
    return parse_config(text)


def config_digest(path: str | Path | None) -> str:
    if path is None:
        return hashlib.sha256(b"<defaults>").hexdigest()
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


DEFAULT_CONFIG_TEXT = """\
# pitchspace run configuration (defaults shown)

pitch.length = 105
pitch.width = 68
pitch.grid_cell = 0.5

motion.reaction_time = 0.2
motion.max_speed = 7.8

weight.beta = 0.5

feature.n = 3
feature.ranking_variable = dist_ball     # fast_space_vel | dist_ball | time_to_player | time_to_passline
feature.fast_space_vel = current         # current | best_move
feature.infinite_rank = first            # first | last | both

# comma-separated values span the hyperparameter search grid
model.max_depth = 3, 5
model.learning_rate = 0.1, 0.3
model.n_trees = 50, 100, 200
model.l2_lambda = 1
model.gamma = 0
model.subsample = 1
model.min_child_weight = 0

cv.k = 5
cv.seed = 17
metrics.threshold = 0.5

synth.attackers = 10
synth.defenders = 10
synth.passes = 200
synth.noise = 0.0
synth.rule = 2.0 - 0.2*dist_ball
synth.empty_defense_rate = 0.05
synth.opponent_pass_rate = 0.0
synth.receiver_mode = nearest
synth.kickoff_frames = 120
synth.frame_rate = 10.0
synth.frame_offset = 0

render.show_voronoi_boundaries = false
render.show_scores = true
# render.colormap_min / render.colormap_max default to the 5th/95th score percentiles
"""
