"""Off-ball / on-ball state variables, top-n receiver selection, and the model table.

Per candidate receiver the five off-ball variables are, in fixed column order:
fast_space_vel (the player's space score), variation_space_vel (signed
max-magnitude 1 m directional delta), dist_ball, time_to_player, and
time_to_passline. Dataset columns are named <variable>_<rank> for ranks 1..n.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dominance import (
    ATTACKING,
    DEFENDING,
    MotionParams,
    batch_scores_with_deltas,
    offside_positions,
)
from .match_io import MatchEvent, SchemaError, TrackedFrame, located
from .pitch import Ball, PitchSpec, Point2, WeightParams, goal_distance_angle

logger = logging.getLogger(__name__)

FEATURE_VARIABLES = (
    "fast_space_vel",
    "variation_space_vel",
    "dist_ball",
    "time_to_player",
    "time_to_passline",
)
RANKING_VARIABLES = ("fast_space_vel", "dist_ball", "time_to_player", "time_to_passline")


@dataclass(frozen=True)
class OffBallFeatures:
    """State variables for one candidate pass receiver."""

    player_id: str
    fast_space_vel: float
    variation_space_vel: float
    dist_ball: float
    time_to_player: float
    time_to_passline: float


@dataclass(frozen=True)
class HolderOnBall:
    """State variables of the ball holder."""

    holder_id: str
    dist_goal: float
    angle_goal: float
    nearest_defender_time: float
    deltas: tuple[float, ...]


@dataclass
class PassSampleTable:
    """Model-ready feature table; `raw` keeps +inf / padding NaN for
    leak-free fold-internal imputation."""

    event_ids: list[str]
    labels: np.ndarray
    columns: list[str]
    raw: np.ndarray

    def __len__(self) -> int:
        return len(self.event_ids)

    @property
    def imputation_flags(self) -> np.ndarray:
        return ~np.isfinite(self.raw)

    def finite_medians(self) -> dict[str, float]:
        """Per-column median over finite values; 0.0 for a column with none
        (all padding or +inf), which imputation makes constant, so no tree
        splits on it."""
        medians: dict[str, float] = {}
        for j, col in enumerate(self.columns):
            vals = self.raw[:, j]
            finite = vals[np.isfinite(vals)]
            medians[col] = float(np.median(finite)) if finite.size else 0.0
        return medians

    def subset(self, indices: Sequence[int]) -> "PassSampleTable":
        idx = list(indices)
        return PassSampleTable(
            event_ids=[self.event_ids[i] for i in idx],
            labels=self.labels[idx],
            columns=list(self.columns),
            raw=self.raw[idx],
        )

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["event_id", "label", *self.columns, *(f"imputed_{c}" for c in self.columns)]
            )
            flags = self.imputation_flags
            for i, eid in enumerate(self.event_ids):
                writer.writerow(
                    [eid, int(self.labels[i])]
                    + [repr(float(v)) for v in self.raw[i]]
                    + [int(b) for b in flags[i]]
                )

    @classmethod
    def from_csv(cls, path: str | Path) -> "PassSampleTable":
        event_ids, labels, rows = [], [], []
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                with located(path, 1):
                    header = next(reader, None)
                    if not header or header[:2] != ["event_id", "label"]:
                        raise SchemaError("not a feature table (bad header)")
                    rest = header[2:]
                    n_cols = len(rest) // 2
                    columns = rest[:n_cols]
                    if rest[n_cols:] != [f"imputed_{c}" for c in columns]:
                        raise SchemaError("malformed feature table header")
                    if not columns:
                        raise SchemaError("no feature columns")
                    repeated = sorted({c for c in columns if columns.count(c) > 1})
                    if repeated:  # imputation medians are keyed by name
                        raise SchemaError(f"repeated column names {repeated}")
                for rec in reader:
                    with located(path, reader.line_num):
                        if not rec:
                            raise SchemaError("blank line")
                        if len(rec) != len(header):
                            raise SchemaError(f"{len(rec)} fields, the header has {len(header)}")
                        if rec[1] not in ("0", "1"):
                            raise SchemaError(f"label must be 0 or 1, got {rec[1]!r}")
                        values = []
                        for col, cell in zip(columns, rec[2 : 2 + n_cols]):
                            try:
                                values.append(float(cell))
                            except ValueError:
                                raise SchemaError(
                                    f"column {col!r}: {cell!r} is not a number"
                                ) from None
                    event_ids.append(rec[0])
                    labels.append(int(rec[1]))
                    rows.append(values)
            except csv.Error as exc:
                raise SchemaError(f"malformed CSV ({exc})", path, reader.line_num) from exc
        if not rows:
            raise SchemaError("a header but no rows", path, 1)
        return cls(
            event_ids=event_ids,
            labels=np.array(labels, dtype=np.int64),
            columns=columns,
            raw=np.array(rows, dtype=np.float64),
        )


def impute_non_finite(X: np.ndarray, columns: Sequence[str], medians: dict[str, float]) -> np.ndarray:
    """A copy of X in which every non-finite cell holds its column's median."""
    fill = np.array([medians[col] for col in columns], dtype=np.float64)
    return np.where(np.isfinite(X), X, fill)


# ---------------------------------------------------------------------------
# Frame orientation
# ---------------------------------------------------------------------------


def orient_frame(frame: TrackedFrame, attacking_team_id: str) -> TrackedFrame:
    """The frame, in one copy, with teams relabelled attacking/defending and
    the attack toward +x: for a team attacking left the x columns of `xy`,
    `vxy` and the ball are negated. The direction comes from the
    `attacks_right_team` marker or, without one, from a guess: a team sits in
    its own half on average, so the smaller mean-x team attacks right."""
    own = frame.teams == attacking_team_id
    if frame.metadata.attacks_right_team is not None:
        attacks_right = frame.metadata.attacks_right_team == attacking_team_id
    else:
        x = frame.xy[:, 0]
        attacks_right = bool(own.all() or not own.any() or np.mean(x[own]) <= np.mean(x[~own]))
        logger.warning(
            "frame %d: no attack-direction marker; inferred attacks_right=%s for team %s",
            frame.frame_index,
            attacks_right,
            attacking_team_id,
        )
    roles = np.where(own, ATTACKING, DEFENDING).astype(object)
    if attacks_right:
        return frame.with_players(teams=roles)
    pos, vel = frame.ball.pos, frame.ball.vel
    return frame.with_players(
        teams=roles,
        xy=frame.xy * (-1.0, 1.0),
        vxy=frame.vxy * (-1.0, 1.0),
        ball=Ball(Point2(-pos.x, pos.y), Point2(-vel.x, vel.y)),
    )


# ---------------------------------------------------------------------------
# Off-ball and on-ball state variables
# ---------------------------------------------------------------------------


def passline_interception_time(defender_pos, defender_vel, a, b, mp: MotionParams) -> float:
    """Minimal arrival time of a defender to any point of segment [a, b] ((x, y)
    pairs): receiver_variables' time_to_passline for this one defender."""
    (x, y), (vx, vy), rt = defender_pos, defender_vel, mp.reaction_time
    return receiver_variables(b, a, [(x + vx * rt, y + vy * rt)], mp)[2]


def receiver_variables(target, ball, defenders, mp: MotionParams) -> tuple[float, float, float]:
    """(dist_ball, time_to_player, time_to_passline) of a player at `target`,
    with the ball at `ball`, against the defenders' predicted points (see
    _defenders), each an (x, y) pair: the distance to the ball, and the least
    defender arrival time at the player and at the pass line (+inf without
    defenders). A time is reaction_time + d / max_speed, d the distance from
    a predicted point, to the line at its orthogonal projection. Both rounded
    steps are monotone in d, so the time of the least d is the least
    per-defender time bit for bit."""
    (tx, ty), (bx, by) = target, ball
    dist_ball = math.hypot(bx - tx, by - ty)
    if not defenders:
        return dist_ball, math.inf, math.inf
    sx, sy = tx - bx, ty - by
    denom = sx * sx + sy * sy
    to_player = to_line = math.inf
    for px, py in defenders:
        d = math.hypot(tx - px, ty - py)
        if d < to_player:
            to_player = d
        t = 0.0 if denom == 0.0 else ((px - bx) * sx + (py - by) * sy) / denom
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t  # clamped to the segment
        d = math.hypot(bx + t * sx - px, by + t * sy - py)
        if d < to_line:
            to_line = d
    rt, speed = mp.reaction_time, mp.max_speed
    return dist_ball, rt + to_player / speed, rt + to_line / speed


def _defenders(frame: TrackedFrame, mp: MotionParams) -> list[list[float]]:
    """Predicted point (x, y) of each defender of an oriented frame, in row
    order: its position after drifting at its velocity for the reaction time."""
    rows = frame.teams == DEFENDING
    return (frame.xy[rows] + frame.vxy[rows] * mp.reaction_time).tolist()


def offball_features(
    frame: TrackedFrame,
    passer_id: str,
    pitch: PitchSpec,
    mp: MotionParams,
    w: WeightParams,
    selection: Selection | None = None,
) -> list[OffBallFeatures]:
    """State variables for the eligible candidate receivers of a pass, in id order.

    The frame must be oriented (attack toward +x, attacking/defending roles).
    Candidates are the attacking players minus the passer and minus offside
    positions; offside exclusion also applies to the dominance partition.
    Without a selection every candidate is returned; with one, only those
    that one of its top-n rankings keeps, and only they are probed (see
    Selection).
    """
    ids = frame.ids
    if passer_id not in ids:
        raise ValueError(f"passer {passer_id!r} missing from frame {frame.frame_index}")
    excluded = offside_positions(frame)
    teams, xy = frame.teams.tolist(), frame.xy.tolist()
    skip = excluded | {passer_id}
    candidates = sorted(
        (i for i, pid in enumerate(ids) if teams[i] == ATTACKING and pid not in skip),
        key=ids.__getitem__,
    )
    if not candidates:
        return []
    defenders = _defenders(frame, mp)
    ball = frame.ball.pos.x, frame.ball.pos.y
    # (dist_ball, time_to_player, time_to_passline): the values that need no probe.
    plain = {ids[c]: receiver_variables(xy[c], ball, defenders, mp) for c in candidates}

    select = None
    if selection is not None:

        def select(scores):
            return selection.kept_ids(
                [OffBallFeatures(pid, scores.score(pid), math.nan, *v) for pid, v in plain.items()]
            )

    table = batch_scores_with_deltas(
        frame, pitch, mp, w, delta_ids=list(plain), excluded=excluded, select=select
    )
    out: list[OffBallFeatures] = []
    for pid, values in plain.items():
        entry = table.entries[pid]
        deltas = entry.deltas
        if deltas is None:
            continue  # no ranking of the selection keeps this candidate
        k_star = int(np.argmax(np.abs(deltas)))  # first max -> smallest direction index on ties
        out.append(OffBallFeatures(pid, entry.score, float(deltas[k_star]), *values))
    return out


def onball_features(
    frame: TrackedFrame,
    holder_id: str,
    pitch: PitchSpec,
    mp: MotionParams,
    w: WeightParams,
) -> HolderOnBall:
    """State variables of the ball holder, who must be onside.

    The frame must be oriented and hold at least one defender.
    """
    ids = frame.ids
    if holder_id not in ids:
        raise ValueError(f"holder {holder_id!r} missing from frame {frame.frame_index}")
    defenders = _defenders(frame, mp)
    if not defenders:
        raise ValueError("the holder's variables need at least one defender")
    holder = frame.xy[ids.index(holder_id)].tolist()
    dist_goal, angle_goal = goal_distance_angle(holder, pitch)
    ball = frame.ball.pos.x, frame.ball.pos.y
    _, nearest, _ = receiver_variables(holder, ball, defenders, mp)
    table = batch_scores_with_deltas(
        frame, pitch, mp, w, delta_ids=[holder_id], excluded=offside_positions(frame)
    )
    return HolderOnBall(
        holder_id=holder_id,
        dist_goal=dist_goal,
        angle_goal=angle_goal,
        nearest_defender_time=nearest,
        deltas=tuple(float(d) for d in table.entries[holder_id].deltas),
    )


# ---------------------------------------------------------------------------
# Top-n selection and dataset assembly
# ---------------------------------------------------------------------------


def select_top_n(
    features: list[OffBallFeatures],
    n: int,
    ranking_variable: str,
) -> list[str]:
    """Player ids of the top-n candidates under the ranking variable.

    dist_ball ranks ascending, the other variables descending, with infinite
    time values first (largest under descending order). Ties break by player
    id. Returns fewer than n ids when fewer candidates exist.

    Where infinite values rank cannot change a pass's selection on extracted
    features: the two times are minima over the frame's defenders, so within
    a pass they are infinite for every candidate or for none.
    """
    if n <= 0:
        raise ValueError(f"n must be >= 1, got {n}")
    if ranking_variable not in RANKING_VARIABLES:
        raise ValueError(f"unknown ranking variable {ranking_variable!r}")

    def key(f: OffBallFeatures):
        v = getattr(f, ranking_variable)
        return (v if ranking_variable == "dist_ball" else -v, f.player_id)

    ordered = sorted(features, key=key)
    return [f.player_id for f in ordered[:n]]


@dataclass(frozen=True)
class Selection:
    """The top-n selections that tables will make from extracted features:
    `n` and the ranking variables.

    A candidate that none of them keeps never reaches a table, so extraction
    under a selection probes and returns only the kept ones. The rankings
    read dist_ball, the two times and the partition score, none of which
    needs a probe.
    """

    n: int
    rankings: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for variable in self.rankings:
            if variable not in RANKING_VARIABLES:
                raise ValueError(f"unknown ranking variable {variable!r}")

    def kept_ids(self, features: list[OffBallFeatures]) -> set[str]:
        """Ids that at least one of the rankings puts in its top n."""
        return {pid for var in self.rankings for pid in select_top_n(features, self.n, var)}


@dataclass
class EventFeatures:
    """Candidate-receiver features for one pass event, in id order: every
    eligible candidate, or under a Selection only those it keeps."""

    event_id: str
    label: int
    features: list[OffBallFeatures]


def extract_event_features(
    frames: list[TrackedFrame],
    events: list[MatchEvent],
    pitch: PitchSpec,
    mp: MotionParams,
    w: WeightParams,
    selection: Selection | None = None,
) -> list[EventFeatures]:
    """Per-pass candidate features for one match, in event order."""
    frame_by_index = {f.frame_index: f for f in frames}
    out: list[EventFeatures] = []
    for ev in events:
        if ev.type != "pass":
            continue
        frame = frame_by_index.get(ev.frame)
        if frame is None:
            raise ValueError(
                f"pass {ev.event_id} references frame {ev.frame} absent from tracking; "
                "synchronize the match first"
            )
        oriented = orient_frame(frame, ev.team)
        try:
            feats = offball_features(oriented, ev.player, pitch, mp, w, selection)
        except ValueError as exc:  # such as a passer missing from the frame
            raise ValueError(f"pass {ev.event_id}: {exc}") from None
        out.append(EventFeatures(ev.event_id, ev.label, feats))
    return out


def column_names(n: int) -> list[str]:
    return [f"{var}_{rank}" for rank in range(1, n + 1) for var in FEATURE_VARIABLES]


def assemble_table(
    event_features: list[EventFeatures],
    n: int,
    ranking_variable: str,
) -> PassSampleTable:
    """Rank candidates, lay out 5*n columns, leave padding as NaN in `raw`."""
    cols = column_names(n)
    rows = np.full((len(event_features), len(cols)), np.nan)
    labels = np.empty(len(event_features), dtype=np.int64)
    for i, ef in enumerate(event_features):
        labels[i] = ef.label
        by_id = {f.player_id: f for f in ef.features}
        for rank, pid in enumerate(select_top_n(ef.features, n, ranking_variable)):
            f = by_id[pid]
            base = rank * len(FEATURE_VARIABLES)
            for k, var in enumerate(FEATURE_VARIABLES):
                rows[i, base + k] = getattr(f, var)
    return PassSampleTable(
        event_ids=[ef.event_id for ef in event_features],
        labels=labels,
        columns=cols,
        raw=rows,
    )


def extract_match_features(
    matches: Iterable[tuple[list[TrackedFrame], list[MatchEvent]]],
    pitch: PitchSpec,
    mp: MotionParams,
    w: WeightParams,
    selection: Selection | None = None,
) -> list[EventFeatures]:
    """extract_event_features over each match, concatenated in match order.
    Refuses input with no pass event: no table or fold holds zero rows."""
    all_features: list[EventFeatures] = []
    for frames, events in matches:
        all_features.extend(extract_event_features(frames, events, pitch, mp, w, selection))
    if not all_features:
        raise ValueError("no pass events to extract")
    return all_features


def build_dataset(
    matches: Iterable[tuple[list[TrackedFrame], list[MatchEvent]]],
    n: int,
    ranking_variable: str,
    pitch: PitchSpec,
    mp: MotionParams,
    w: WeightParams,
) -> tuple[PassSampleTable, dict[str, float]]:
    """One table row per pass event across matches, plus training medians.

    The returned table keeps raw values (+inf interception times, NaN rank
    padding); the medians are computed over finite values only and are what
    inference-time imputation should reuse.
    """
    selection = Selection(n, (ranking_variable,))
    all_features = extract_match_features(matches, pitch, mp, w, selection)
    table = assemble_table(all_features, n, ranking_variable)
    medians = table.finite_medians()
    return table, medians
