"""Arrival-time motion model, velocity-aware Voronoi grids, and space scores.

The pitch is partitioned on a cell-center grid: each cell belongs to the
player who reaches it first under a reaction-then-sprint motion model. A
player's space score is the weighted area of their region, using the
attacking-direction field weight for attackers and the left-right mirrored
weight for defenders. Offside attackers are excluded from the partition.
Frames are read as their player arrays (`ids`, `teams`, (P, 2) `xy` and
`vxy`), never through the `players` view of PlayerState records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .pitch import MAX_COORDINATE, PitchSpec, Point2, WeightParams, weight_grid

if TYPE_CHECKING:
    from .match_io import TrackedFrame

ATTACKING = "attacking"
DEFENDING = "defending"

MAX_TRACKED_SPEED = 13.0  # m/s, sanity bound on tracked player velocity

# Unit displacement directions at k*45 deg counterclockwise from +x (k = 0..7).
_S = math.sqrt(0.5)
DIRECTIONS_8: tuple[tuple[float, float], ...] = (
    (1.0, 0.0),
    (_S, _S),
    (0.0, 1.0),
    (-_S, _S),
    (-1.0, 0.0),
    (-_S, -_S),
    (0.0, -1.0),
    (_S, -_S),
)


@dataclass(frozen=True)
class PlayerState:
    """Kinematic state of one player at one instant: a `TrackedFrame.players` record."""

    player_id: str
    team: str
    pos: Point2
    vel: Point2 = Point2(0.0, 0.0)
    extra: dict = field(default_factory=dict, compare=True)

    def __post_init__(self) -> None:
        if self.vel.norm() > MAX_TRACKED_SPEED + 1e-9:
            raise ValueError(
                f"player {self.player_id} velocity {self.vel.norm():.2f} m/s exceeds "
                f"{MAX_TRACKED_SPEED} m/s sanity bound"
            )


@dataclass(frozen=True)
class MotionParams:
    """Reaction-then-sprint arrival model parameters."""

    reaction_time: float = 0.2
    max_speed: float = 7.8

    def __post_init__(self) -> None:
        limit = MAX_COORDINATE / MAX_TRACKED_SPEED  # so a drift stays within MAX_COORDINATE
        if not 0 <= self.reaction_time <= limit:
            raise ValueError(
                f"reaction_time must be finite and in [0, {limit:.4g}] s, got {self.reaction_time}"
            )
        if not 0 < self.max_speed < math.inf:
            raise ValueError(f"max_speed must be finite and > 0, got {self.max_speed}")


@dataclass
class DominanceField:
    """Grid partition of the pitch: per-cell owning player and minimal arrival time.

    `owner` holds indices into `player_ids` (ascending id order of the
    eligible players); `time` holds the owner's arrival time in seconds.
    Both arrays have shape (ny, nx).
    """

    pitch: PitchSpec
    player_ids: list[str]
    owner: np.ndarray
    time: np.ndarray

    @property
    def cell_area(self) -> float:
        return self.pitch.grid_cell ** 2

    def owned_cell_counts(self) -> dict[str, int]:
        counts = np.bincount(self.owner.ravel(), minlength=len(self.player_ids))
        return {pid: int(c) for pid, c in zip(self.player_ids, counts)}


@dataclass
class PlayerSpaceScore:
    """Weighted-area score for one player, with optional 1 m directional deltas."""

    player_id: str
    team: str
    score: float
    deltas: np.ndarray | None = None
    excluded_offside: bool = False


@dataclass
class SpaceScoreTable:
    """Per-player space scores for one frame, keyed by player id."""

    entries: dict[str, PlayerSpaceScore]

    def score(self, player_id: str) -> float:
        return self.entries[player_id].score

    def __iter__(self):
        return iter(self.entries.values())


def arrival_time(pos, vel, target, mp: MotionParams) -> float:
    """Time from `pos` at velocity `vel` to `target`, each an (x, y) pair: drift
    at current velocity for the reaction time, then run straight at max speed."""
    (x, y), (vx, vy), (tx, ty) = pos, vel, target
    px = x + vx * mp.reaction_time
    py = y + vy * mp.reaction_time
    return mp.reaction_time + math.hypot(tx - px, ty - py) / mp.max_speed


def _sorted_eligible(frame: "TrackedFrame", excluded: Iterable[str]) -> list[int]:
    """Rows of the players not in `excluded`, in ascending id order."""
    excluded = frozenset(excluded)
    ids = frame.ids
    return sorted((i for i, pid in enumerate(ids) if pid not in excluded), key=ids.__getitem__)


def _sq_dist(xs: np.ndarray, ys: np.ndarray, qx, qy) -> np.ndarray:
    """Squared distances from (qx, qy) to the points xs, ys (broadcast)."""
    dx = xs - qx
    dy = ys - qy
    return dx * dx + dy * dy


def _to_time(d2: np.ndarray, mp: MotionParams) -> np.ndarray:
    """Arrival times from squared distances, in place. Each step is correctly
    rounded, so the map is monotone non-decreasing: it keeps every order of
    squared distances, but may round two of them to one time."""
    np.sqrt(d2, out=d2)
    d2 /= mp.max_speed
    d2 += mp.reaction_time
    return d2


def _arrival_grid(
    xs: np.ndarray, ys: np.ndarray, qx, qy, mp: MotionParams
) -> np.ndarray:
    """Arrival times from predicted point(s) (qx, qy) to the cell centers xs x ys.

    A scalar point gives shape (len(ys), len(xs)); points of shape (k, 1, 1)
    give (k, len(ys), len(xs)). The partition, its tie re-ranking and the
    probes all use _sq_dist and _to_time elementwise, so their times agree
    bitwise.
    """
    return _to_time(_sq_dist(xs, ys[:, np.newaxis], qx, qy), mp)


def _partition(
    xy: np.ndarray, vxy: np.ndarray, pitch: PitchSpec, mp: MotionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best and runner-up arrival per cell over the id-sorted players (rows of xy, vxy).

    Returns (owner, best, second_idx, second), each of shape (ny, nx). The
    runner-up is the best player once the owner is left out (index 0 and time
    +inf if nobody else). Only a strictly earlier time moves an index: ties
    keep the smaller id.

    Players are ranked by squared distance, keeping the three smallest, and
    only those become times (see _to_time). Where the three times are distinct,
    the squared-distance owner and runner-up are the time owner and runner-up.
    Elsewhere two times may be a rounding tie that a smaller id should win,
    so those cells are ranked again on their times.
    """
    if not len(xy):
        raise ValueError("dominance grid requires at least one eligible player")
    xs, ys = pitch.cell_centers()
    qx, qy = (xy + vxy * mp.reaction_time).T
    # Each player's squared column and row offsets; a grid is the row copied
    # down, plus the column added in place.
    dx2 = xs - qx[:, np.newaxis]
    dx2 *= dx2
    dy2 = ys - qy[:, np.newaxis]
    dy2 *= dy2
    shape = (len(ys), len(xs))
    best, second, third = (np.full(shape, np.inf) for _ in range(3))
    owner, second_idx = (np.zeros(shape, dtype=np.int32) for _ in range(2))
    beats_best, beats_second = (np.empty(shape, dtype=bool) for _ in range(2))
    d2, scratch = (np.empty(shape) for _ in range(2))
    for j in range(len(xy)):
        np.copyto(d2, dx2[j])
        d2 += dy2[j, :, np.newaxis]
        np.less(d2, best, out=beats_best)
        np.less(d2, second, out=beats_second)
        np.minimum(third, np.maximum(second, d2, out=scratch), out=third)
        np.minimum(second, np.maximum(best, d2, out=scratch), out=second)
        np.minimum(best, d2, out=best)
        # best <= second, so beats_best implies beats_second: the owner copy wins.
        np.copyto(second_idx, j, where=beats_second)
        np.copyto(second_idx, owner, where=beats_best)
        np.copyto(owner, j, where=beats_best)
    for g in (best, second, third):
        _to_time(g, mp)
    iy, ix = np.nonzero((best == second) | (second == third))
    if iy.size:
        # (P, k) times of the listed cells; argmin keeps the smaller id.
        t = _to_time(_sq_dist(xs[ix], ys[iy], qx[:, np.newaxis], qy[:, np.newaxis]), mp)
        cells = np.arange(iy.size)
        owner[iy, ix] = o = t.argmin(axis=0)
        best[iy, ix] = t[o, cells]
        t[o, cells] = np.inf
        second_idx[iy, ix] = s = t.argmin(axis=0)
        second[iy, ix] = t[s, cells]
    return owner, best, second_idx, second


def compute_dominance_grid(
    frame: "TrackedFrame",
    pitch: PitchSpec,
    mp: MotionParams,
    excluded: Iterable[str] = (),
) -> DominanceField:
    """Assign every grid cell to the player reaching its center first.

    Ties are broken by the smaller player id (ids are totally ordered).
    """
    rows = _sorted_eligible(frame, excluded)
    owner, best, *_ = _partition(frame.xy[rows], frame.vxy[rows], pitch, mp)
    return DominanceField(pitch, [frame.ids[i] for i in rows], owner, best)


def space_scores(
    field_: DominanceField, frame: "TrackedFrame", w: WeightParams
) -> SpaceScoreTable:
    """Weighted-area score per player: cell area times field weight, summed
    over owned cells. Players absent from the field (offside-excluded) get 0.

    Attackers use the attacking-direction weight, defenders the mirrored one.
    """
    teams = dict(zip(frame.ids, frame.teams.tolist()))
    defending = np.array([teams[pid] == DEFENDING for pid in field_.player_ids])
    weight = np.where(
        defending[field_.owner],
        weight_grid(field_.pitch, w, attacking_right=False),
        weight_grid(field_.pitch, w, attacking_right=True),
    )
    sums = np.bincount(
        field_.owner.ravel(), weights=weight.ravel(), minlength=len(field_.player_ids)
    )
    index = {pid: i for i, pid in enumerate(field_.player_ids)}
    entries: dict[str, PlayerSpaceScore] = {}
    for pid in sorted(teams):
        if pid in index:
            score = float(sums[index[pid]] * field_.cell_area)
            entries[pid] = PlayerSpaceScore(pid, teams[pid], score)
        else:
            entries[pid] = PlayerSpaceScore(
                pid, teams[pid], 0.0, deltas=np.zeros(8), excluded_offside=True
            )
    return SpaceScoreTable(entries)


def directional_space_deltas(
    frame: "TrackedFrame",
    player_id: str,
    pitch: PitchSpec,
    mp: MotionParams,
    w: WeightParams,
    excluded: Iterable[str] | None = None,
) -> np.ndarray:
    """Space-score change for 1 m moves in the 8 compass directions.

    The full dominance grid is recomputed with only this player displaced
    (velocity unchanged); displaced positions are clamped to the pitch
    boundary. delta[k] = displaced score - base score, k*45 deg from +x.
    """
    if excluded is None:
        excluded = offside_positions(frame)
    excluded = frozenset(excluded)
    if player_id not in frame.ids:
        raise ValueError(f"unknown player_id {player_id!r}")
    if player_id in excluded:
        raise ValueError(f"player {player_id!r} is excluded from the dominance computation")

    base_field = compute_dominance_grid(frame, pitch, mp, excluded)
    base = space_scores(base_field, frame, w).score(player_id)

    row = frame.ids.index(player_id)
    half = np.array([pitch.half_length, pitch.half_width])
    deltas = np.empty(8)
    for k, moved in enumerate(np.clip(frame.xy[row] + DIRECTIONS_8, -half, half)):
        xy = frame.xy.copy()
        xy[row] = moved
        probe = frame.with_players(xy=xy)
        probe_field = compute_dominance_grid(probe, pitch, mp, excluded)
        deltas[k] = space_scores(probe_field, probe, w).score(player_id) - base
    return deltas


def offside_positions(frame: "TrackedFrame") -> frozenset[str]:
    """Attackers in a static offside position (attack normalized to +x):
    strictly beyond the offside_line of the frame's defenders and ball.
    Defenders are never excluded."""
    rows = list(zip(frame.ids, frame.teams.tolist(), frame.xy[:, 0].tolist()))
    line = offside_line([x for _, team, x in rows if team == DEFENDING], frame.ball.pos.x)
    return frozenset(pid for pid, team, x in rows if team == ATTACKING and x > line)


def offside_line(defender_xs, ball_x: float) -> float:
    """The x an attacker must strictly pass to stand offside (attack toward
    +x): the largest of the halfway line, the ball and the second-rearmost
    defender (rearmost = largest x), which counts only with two defenders or
    more."""
    xs = sorted(defender_xs)
    return max(0.0, ball_x, xs[-2] if len(xs) >= 2 else -math.inf)


# ---------------------------------------------------------------------------
# Batch probe deltas used by the off-ball and on-ball features.
#
# directional_space_deltas recomputes the full partition for each 1 m probe.
# The batch path runs it once, keeping each cell's runner-up: while one player
# moves, everyone else's best time is fixed, so the mover owns a cell iff it
# arrives strictly first, or ties a larger-index rest owner (the owner, or the
# runner-up where the mover is the owner). So each cell gets one limit, lim =
# the next double above rest_t for a larger-index rest owner and rest_t
# otherwise, and a probe wins the cell iff its time is < lim. Every finite
# time is >= +0.0, so the next double is +1 on the int64 view; a +inf rest_t
# (nobody else eligible) has rest index 0, so it is never stepped, and every
# probe wins it.
#
# A probe moves the predicted point by at most `shift` (over 1 m when the
# clamp pulls an off-pitch player in), so by the triangle inequality its exact
# time is within shift / max_speed of the exact own_time, the time from the
# unmoved point. Each computed time is within 3 eps T of its exact value, T
# being the largest time from any of the candidate's points to any cell
# centre. So with allowance = shift / max_speed + 16 eps T, which also covers
# the rounding of gap = lim - own_time, every probe wins a cell where gap >
# allowance and none wins one where gap < -allowance, as long as no squared
# distance overflows, which MAX_COORDINATE ensures for every accepted input.
# Only the band between them needs the 8 probe times.
#
# Every cell that a probe can win has own_time - allowance <= best (best is
# the rest time outside the candidate's region, and own_time == best inside
# it). The grid is cut into _TILE x _TILE cell tiles (ragged at the far
# edges), and a tile can hold such a cell only if bound - allowance <= its
# max of best, where bound is the arrival time at the tile's rectangle of
# cell centres. The bound goes through the same correctly rounded, monotone
# steps as own_time from offsets no larger than any of the tile's, so it is
# <= own_time of every cell in the tile, bitwise: the box of the passing
# tiles holds every cell a probe can win. One array pass per frame gives
# every candidate's probe points, allowance and tile test. Inside the box
# the band rule decides each cell exactly, so the box may hold more cells
# than a probe can win; a candidate with no passing tile gets an empty box
# and wins nothing.
#
# space_scores adds each player's weights in row-major grid order from 0.0,
# so each probe must add its won weights in row-major box order from 0.0 (the
# cells outside the box add nothing). One weighted bincount over the won
# (cell, probe) pairs, taken cell-major at cell * 8 + k, does that for all 8.
# ---------------------------------------------------------------------------

_TILE = 8  # cells per side of the tiles that bound each probe box


def _tile_max(best: np.ndarray) -> np.ndarray:
    """Per-tile max of `best`, shape (ceil(ny / _TILE), ceil(nx / _TILE))."""
    ny, nx = best.shape
    n = ny - ny % _TILE
    rows = best[:n].reshape(-1, _TILE, nx).max(axis=1)
    if n < ny:
        rows = np.vstack([rows, best[n:].max(axis=0)])
    return np.maximum.reduceat(rows, np.arange(0, nx, _TILE), axis=1)


@lru_cache(maxsize=32)
def _tile_spans(pitch: PitchSpec) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the first and last cell centre of each tile, x tiles in row 0
    and y tiles in row 1, the shorter row padded with zeros."""
    spans = np.zeros((2, 2, math.ceil(max(pitch.nx, pitch.ny) / _TILE)))
    for axis, centres in enumerate(pitch.cell_centers()):
        first = np.arange(0, centres.size, _TILE)
        spans[0, axis, : first.size] = centres[first]
        spans[1, axis, : first.size] = centres[np.append(first[1:], centres.size) - 1]
    spans.setflags(write=False)
    return spans[0], spans[1]


def _probe_frame(
    xy: np.ndarray, vxy: np.ndarray, best: np.ndarray, pitch: PitchSpec, mp: MotionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For C candidates (rows of xy, vxy), in one array pass: the (C, 2)
    predicted points, the (C, 8, 2) predicted points of their 8 clamped 1 m
    probes, the (C,) allowances and the (C, ty, tx) tiles that may hold a cell
    where the arrival time minus the allowance is <= best (see above)."""
    vel = vxy * mp.reaction_time
    q = xy + vel
    half = np.array([pitch.half_length, pitch.half_width])
    pred = np.clip(xy[:, np.newaxis] + DIRECTIONS_8, -half, half) + vel[:, np.newaxis]
    shift = np.hypot(*(pred - q[:, np.newaxis]).T).max(axis=0)
    far = np.hypot(*(np.abs(q) + half + pitch.grid_cell).T) + shift  # centres overhang < 1 cell
    eps = np.finfo(float).eps
    allowance = shift / mp.max_speed + 16 * eps * (mp.reaction_time + far / mp.max_speed)
    lo, hi = _tile_spans(pitch)
    qt = q[:, :, np.newaxis]
    d = np.maximum(np.maximum(lo - qt, qt - hi), 0.0)  # offsets to each tile's span
    d *= d
    tile_max = _tile_max(best)
    ty, tx = tile_max.shape
    bound = _to_time(d[:, 1, :ty, np.newaxis] + d[:, 0, np.newaxis, :tx], mp)
    return q, pred, allowance, bound - allowance[:, np.newaxis, np.newaxis] <= tile_max


def _tile_box(tiles: np.ndarray) -> tuple[slice, slice]:
    """The cell box of the tiles marked in the (ty, tx) mask `tiles`; empty if none."""
    rows, cols = (np.flatnonzero(tiles.any(axis=a)) * _TILE for a in (1, 0))
    if not rows.size:
        return np.s_[:0, :0]
    return np.s_[rows[0] : rows[-1] + _TILE, cols[0] : cols[-1] + _TILE]


def _probe_deltas(
    field_: DominanceField,
    second_idx: np.ndarray,
    second: np.ndarray,
    idx: int,
    box: tuple[slice, slice],
    q: np.ndarray,
    pred: np.ndarray,
    allowance: float,
    mp: MotionParams,
    weight: np.ndarray,
    score: float,
) -> np.ndarray:
    """Score change of player `idx` for its 8 probes over `box`, from its
    predicted point q and those of its probes, the (8, 2) `pred` (see above)."""
    xs, ys = field_.pitch.cell_centers()
    xs, ys = xs[box[1]], ys[box[0]]
    own = _arrival_grid(xs, ys, q[0], q[1], mp)
    owner = field_.owner[box]
    mine = owner == idx
    lim = np.where(mine, second[box], field_.time[box])
    lim.view(np.int64)[...] += idx < np.where(mine, second_idx[box], owner)
    gap = (lim - own).ravel()
    band = np.flatnonzero(np.abs(gap) <= allowance)
    row, col = np.divmod(band, xs.size)
    qx, qy = pred.T
    probe = _to_time(_sq_dist(xs[col, np.newaxis], ys[row, np.newaxis], qx, qy), mp)
    won = np.repeat(gap > allowance, 8).reshape(-1, 8)
    won[band] = probe < lim.ravel()[band, np.newaxis]
    return _won_sums(won, weight[box].ravel()) * field_.cell_area - score


def _won_sums(won: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Per probe k, the sum of `weight` over the cells where won[:, k], added
    in cell order from 0.0: one bincount over the won pairs at cell * 8 + k."""
    pairs = np.flatnonzero(won)
    return np.bincount(pairs & 7, weights=weight[pairs >> 3], minlength=8)


def batch_scores_with_deltas(
    frame: "TrackedFrame",
    pitch: PitchSpec,
    mp: MotionParams,
    w: WeightParams,
    delta_ids: Iterable[str],
    excluded: Iterable[str] = (),
    select: Callable[[SpaceScoreTable], Iterable[str]] | None = None,
) -> SpaceScoreTable:
    """Space scores for every player plus 8-direction deltas for `delta_ids`.

    Produces the same numbers as compute_dominance_grid -> space_scores ->
    directional_space_deltas, with one partition per frame. If `select` is
    given, it sees the scores before any probe, and only the players of
    `delta_ids` that it returns get deltas; the others keep deltas None.
    """
    excluded = frozenset(excluded)
    delta_ids = set(delta_ids)
    unknown = delta_ids.difference(frame.ids)
    if unknown:
        raise ValueError(f"unknown player ids {sorted(unknown)!r}")
    if delta_ids & excluded:
        raise ValueError(f"deltas requested for excluded players {sorted(delta_ids & excluded)!r}")

    rows = _sorted_eligible(frame, excluded)
    xy, vxy = frame.xy[rows], frame.vxy[rows]
    owner, best, second_idx, second = _partition(xy, vxy, pitch, mp)
    field_ = DominanceField(pitch, [frame.ids[i] for i in rows], owner, best)
    table = space_scores(field_, frame, w)
    if select is not None:
        delta_ids &= set(select(table))
    probed = [i for i, pid in enumerate(field_.player_ids) if pid in delta_ids]
    if not probed:
        return table
    q, pred, allowance, tiles = _probe_frame(xy[probed], vxy[probed], best, pitch, mp)
    for c, i in enumerate(probed):
        entry = table.entries[field_.player_ids[i]]
        weight = weight_grid(pitch, w, attacking_right=entry.team != DEFENDING)
        entry.deltas = _probe_deltas(
            field_, second_idx, second, i, _tile_box(tiles[c]), q[c], pred[c], allowance[c], mp,
            weight, entry.score,
        )
    return table
