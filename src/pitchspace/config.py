"""Flat key-value run configuration.

The config file is line-oriented `key = value` text with `#` comments. One
table, `_KEYS`, maps each key to the RunConfig field it sets and the parser
of its value; keys left out keep the dataclass defaults, and unknown keys
are rejected so typos surface immediately. List-valued model keys (comma
separated) span the search grid. README's Configuration table names every
key or `prefix.*` family of `_KEYS`, and a test holds the two together.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field as dc_field, replace
from functools import partial
from pathlib import Path

from .dominance import MotionParams
from .features import RANKING_VARIABLES
from .gbdt import GbdtHyperParams
from .pitch import PitchSpec, WeightParams
from .render_svg import RenderOptions
from .synth import RULE_FEATURES, SynthConfig


class ConfigError(ValueError):
    """Bad configuration file or value."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _bool(text: str) -> bool:
    v = text.lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# search-grid axis -> (parser of one value, default values)
_GRID_AXES = {
    "max_depth": (int, [3, 5]),
    "learning_rate": (_finite, [0.1, 0.3]),
    "n_trees": (int, [50, 100, 200]),
    "l2_lambda": (_finite, [1.0]),
    "gamma": (_finite, [0.0]),
    "subsample": (_finite, [1.0]),
    "min_child_weight": (_finite, [0.0]),
}


def _build_grid(axes: dict[str, list]) -> list[GbdtHyperParams]:
    values = [axes.get(name, default) for name, (_, default) in _GRID_AXES.items()]
    # product() varies the last axis fastest, as nested loops in key order would
    return [
        GbdtHyperParams(**dict(zip(_GRID_AXES, combo))) for combo in itertools.product(*values)
    ]


@dataclass
class RunConfig:
    pitch: PitchSpec = dc_field(default_factory=PitchSpec)
    motion: MotionParams = dc_field(default_factory=MotionParams)
    weight: WeightParams = dc_field(default_factory=WeightParams)
    feature_n: int = 3
    ranking_variable: str = "dist_ball"
    grid: list[GbdtHyperParams] = dc_field(default_factory=lambda: _build_grid({}))
    cv_k: int = 5
    cv_seed: int = 17
    threshold: float = 0.5
    synth: SynthConfig = dc_field(default_factory=SynthConfig)
    render: RenderOptions = dc_field(default_factory=RenderOptions)
    paths: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.feature_n < 1:
            raise ValueError(f"feature_n must be >= 1, got {self.feature_n}")
        if self.ranking_variable not in RANKING_VARIABLES:
            raise ValueError(
                f"ranking_variable must be one of {RANKING_VARIABLES}, "
                f"got {self.ranking_variable!r}"
            )
        if self.cv_k < 2:
            raise ValueError(f"cv_k must be >= 2, got {self.cv_k}")
        if self.cv_seed < 0:
            raise ValueError(f"cv_seed must be >= 0, got {self.cv_seed}")


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
        value = sign * _finite(m.group(2))
        name = m.group(3)
        if name is None:
            intercept += value
        else:
            if name not in RULE_FEATURES:
                raise ConfigError(f"rule feature {name!r} not in {RULE_FEATURES}")
            coeffs[name] = coeffs.get(name, 0.0) + value
        pos = m.end()
    return intercept, coeffs


# config key -> (RunConfig section, "" for a top-level field; field name(s); parser)
_KEYS = {
    "pitch.length": ("pitch", "length", _finite),
    "pitch.width": ("pitch", "width", _finite),
    "pitch.grid_cell": ("pitch", "grid_cell", _finite),
    "motion.reaction_time": ("motion", "reaction_time", _finite),
    "motion.max_speed": ("motion", "max_speed", _finite),
    "weight.beta": ("weight", "beta", _finite),
    "feature.n": ("", "feature_n", int),
    "feature.ranking_variable": ("", "ranking_variable", str),
    "cv.k": ("", "cv_k", int),
    "cv.seed": ("", "cv_seed", int),
    "metrics.threshold": ("", "threshold", _finite),
    "synth.attackers": ("synth", "attackers", int),
    "synth.defenders": ("synth", "defenders", int),
    "synth.passes": ("synth", "passes", int),
    "synth.noise": ("synth", "noise", _finite),
    "synth.rule": ("synth", ("rule_intercept", "rule_coeffs"), parse_rule),
    "synth.empty_defense_rate": ("synth", "empty_defense_rate", _finite),
    "synth.opponent_pass_rate": ("synth", "opponent_pass_rate", _finite),
    "synth.kickoff_frames": ("synth", "kickoff_frames", int),
    "synth.frame_rate": ("synth", "frame_rate", _finite),
    "synth.frame_offset": ("synth", "frame_offset", int),
    "render.show_voronoi_boundaries": ("render", "show_voronoi_boundaries", _bool),
    "render.show_scores": ("render", "show_scores", _bool),
    "render.colormap_min": ("render", "score_min", _finite),
    "render.colormap_max": ("render", "score_max", _finite),
    "paths.tracking": ("paths", "tracking", str),
    "paths.events": ("paths", "events", str),
}


def _axis_values(parse, text: str) -> list:
    values = [parse(v.strip()) for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError("expected one or more comma-separated values")
    return values


_KEYS.update(
    (f"model.{axis}", ("grid", axis, partial(_axis_values, parse)))
    for axis, (parse, _) in _GRID_AXES.items()
)


def parse_config(text: str) -> RunConfig:
    """RunConfig from config text; a bad line or value is a ConfigError naming its line and key."""
    lines: dict[str, tuple[int, str]] = {}  # key -> (line number, value text)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in lines:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        lines[key] = (line_no, value)
    unknown = sorted(set(lines) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")

    def located(section: str, exc: ValueError, keys: list[str] | None = None) -> ConfigError:
        keys = keys or [k for k in lines if _KEYS[k][0] == section]
        return ConfigError(", ".join(f"line {lines[k][0]}: {k}" for k in keys) + f": {exc}")

    sections: dict[str, dict] = {}  # RunConfig section -> field -> parsed value
    for key, (_, value) in lines.items():
        section, name, parse = _KEYS[key]
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise located(section, exc, [key]) from None
        fields = sections.setdefault(section, {})
        fields.update(zip(name, parsed) if isinstance(name, tuple) else [(name, parsed)])

    # each section is built, and so validated, once with all of its keys set
    defaults = RunConfig()
    top = sections.pop("", {})
    for section, fields in sections.items():
        try:
            if section == "grid":
                top[section] = _build_grid(fields)
            elif section == "paths":
                top[section] = fields
            else:
                top[section] = replace(getattr(defaults, section), **fields)
        except ValueError as exc:
            raise located(section, exc) from None
    try:
        return replace(defaults, **top)
    except ValueError as exc:
        raise located("", exc) from None


def load_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig()
    text = Path(path).read_text(encoding="utf-8")
    return parse_config(text)


def config_digest(path: str | Path | None) -> str:
    import hashlib  # loads OpenSSL; only runs that write a manifest need it

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
synth.kickoff_frames = 120
synth.frame_rate = 10.0
synth.frame_offset = 0

render.show_voronoi_boundaries = false
render.show_scores = true
# render.colormap_min / render.colormap_max default to the 5th/95th score percentiles
"""
