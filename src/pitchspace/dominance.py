"""Arrival-time motion model, velocity-aware Voronoi grids, and space scores.

The pitch is partitioned on a cell-center grid: each cell belongs to the
player who reaches it first under a reaction-then-sprint motion model. Every
player shares the reaction time and the top speed, so the first to arrive is
the one whose predicted point (position plus velocity times the reaction
time) is nearest: the partition is the Voronoi diagram of the predicted
points, ranked by squared distance, with exact ties to the smaller id. A
player's space score is the weighted area of their region, using the
attacking-direction field weight for attackers and the left-right mirrored
weight for defenders. Offside attackers are excluded from the partition.
Frames are read as their player arrays (`ids`, `teams`, (P, 2) `xy` and
`vxy`), never through the `players` view of `match_io.PlayerState` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .match_io import MAX_PLAYERS
from .pitch import MAX_COORDINATE, MAX_TRACKED_SPEED, PitchSpec, WeightParams, weight_grid

if TYPE_CHECKING:
    from .match_io import TrackedFrame

ATTACKING = "attacking"
DEFENDING = "defending"

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
        # Accepted points are a few MAX_COORDINATE apart at most, so times stay
        # near 1e300 s or below, and every arrival time is finite.
        slowest = 1.0 / MAX_COORDINATE
        if not slowest <= self.max_speed < math.inf:
            raise ValueError(
                f"max_speed must be finite and >= {slowest:g} m/s, got {self.max_speed}"
            )


@dataclass
class DominanceField:
    """Grid partition of the pitch: the player reaching each cell first.

    `owner`, a uint8 grid of shape (ny, nx), holds indices into `player_ids`
    (ascending id order of the eligible players, at most MAX_PLAYERS).
    """

    pitch: PitchSpec
    player_ids: list[str]
    owner: np.ndarray

    @property
    def cell_area(self) -> float:
        return self.pitch.grid_cell ** 2

    def owned_cell_counts(self) -> dict[str, int]:
        counts = np.bincount(self.owner.ravel(), minlength=len(self.player_ids))
        return {pid: int(c) for pid, c in zip(self.player_ids, counts)}


@dataclass
class PlayerSpaceScore:
    """Weighted-area score for one player, the cell area times `weight_sum` (the
    exact sum of the field weights over its cells), with optional 1 m deltas."""

    player_id: str
    team: str
    score: float
    deltas: np.ndarray | None = None
    excluded_offside: bool = False
    weight_sum: float = 0.0


@dataclass
class SpaceScoreTable:
    """Per-player space scores for one frame, keyed by player id."""

    entries: dict[str, PlayerSpaceScore]

    def score(self, player_id: str) -> float:
        return self.entries[player_id].score

    def __iter__(self):
        return iter(self.entries.values())


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


def _first_arrival(q: np.ndarray, xs: np.ndarray, ys: np.ndarray, skip: int) -> np.ndarray:
    """Per listed cell centre (xs[i], ys[i]), the index of the nearest of the
    predicted points q (P, 2), leaving out point `skip`: argmin keeps the
    smaller index at a tie."""
    d2 = _sq_dist(xs, ys, q[:, :1], q[:, 1:])
    d2[skip] = np.inf
    return d2.argmin(axis=0)


# ---------------------------------------------------------------------------
# Tile bounds and the column-band partition.
#
# The grid is cut into _TILE x _TILE cell tiles (ragged at the far edges).
# For a point q and a tile, the nearest and the farthest offsets from q to the
# tile's span of cell centres on each axis, squared and added, go through the
# same correctly rounded, monotone steps as a cell's computed dx2 + dy2: so
# they bound it below and above, bitwise, for every cell of the tile.
#
# _partition keeps the k smallest squared distances per cell, k chosen by the
# caller: best alone (k = 1) for the owner, which render and the space scores
# need, and best and second (k = 2) for the probe kernel, which needs second
# on the nearest player's own cells. In _column_spans, ubk is a tile's k-th
# smallest upper bound over the players: k players reach every cell of the
# tile at or below it, so every cell's final k-th smallest squared distance is
# <= ubk. A player whose lower bound is > ubk is strictly above that k-th
# smallest everywhere in the tile, so its update there changes none of the k
# smallest nor the first-argmin index: with k = 1 it can neither own nor tie a
# cell there. Each player's span is the hull of the tile columns where it is
# not, and it updates only those columns (all of them with fewer than k
# players).
# ---------------------------------------------------------------------------

_TILE = 8  # cells per side of the bounding tiles


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


def _tile_d2(q: np.ndarray, pitch: PitchSpec) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the squared distance from each of the points
    q (C, 2) to the cell centres of each tile, each of shape (C, ty, tx)."""
    lo, hi = _tile_spans(pitch)
    qt = q[:, :, np.newaxis]
    near = np.maximum(np.maximum(lo - qt, qt - hi), 0.0)
    far = np.maximum(qt - lo, hi - qt)
    ty, tx = -(-pitch.ny // _TILE), -(-pitch.nx // _TILE)
    return tuple(
        d[:, 1, :ty, np.newaxis] + d[:, 0, np.newaxis, :tx] for d in (near * near, far * far)
    )


def _column_spans(q: np.ndarray, pitch: PitchSpec, k: int) -> list[slice]:
    """Per predicted point (rows of q), the cell columns outside which its
    squared distance is above every cell's k-th smallest (see above)."""
    lb, ub = _tile_d2(q, pitch)
    # ubk: knock each tile's k - 1 smallest ub out; +inf with fewer than k points.
    ub = ub.reshape(len(q), -1)
    for _ in range(k - 1):
        ub[ub.argmin(axis=0), np.arange(ub.shape[1])] = np.inf
    kept = (lb <= ub.min(axis=0).reshape(lb.shape[1:])).any(axis=1)
    # The hull of each point's kept tile columns; empty (start > stop) if none.
    cols = np.arange(kept.shape[1])
    start = np.where(kept, cols, kept.shape[1]).min(axis=1) * _TILE
    stop = np.where(kept, cols + 1, 0).max(axis=1) * _TILE
    return [slice(a, b) for a, b in zip(start.tolist(), stop.tolist())]


def _fold(
    j: int,
    d2: np.ndarray,
    best: np.ndarray,
    second: np.ndarray | None,
    owner: np.ndarray,
    beats_best: np.ndarray,
) -> None:
    """Fold player j's squared distances d2 into the smallest per cell, the
    second smallest unless `second` is None, and the index of the first, in
    place. The index moves only where d2 is strictly smaller."""
    np.less(d2, best, out=beats_best)
    if second is not None:
        # best <= second, so min(second, max(best, d2)) is max(best,
        # min(second, d2)): no scratch grid.
        np.minimum(second, d2, out=second)
        np.maximum(second, best, out=second)
    np.minimum(best, d2, out=best)
    np.copyto(owner, j, where=beats_best)


def _partition(
    q: np.ndarray, pitch: PitchSpec, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Nearest predicted point per cell centre, and with k = 2 the
    second-nearest squared distance, over the points q (P, 2) of the id-sorted
    players, at most MAX_PLAYERS of them.

    Returns (owner, best, second), each of shape (ny, nx): the C-contiguous
    uint8 index of the nearest point, its squared distance, and, for k = 2,
    the second smallest squared distance (+inf if nobody else), None for
    k = 1; best and second are views of transposed grids. Only a strictly
    smaller squared distance moves the owner: exact ties keep the smaller id.

    Each player updates only its column span (see _column_spans): outside it
    the player cannot be one of a cell's k nearest, so its update there would
    change nothing. The grids are worked on transposed, (nx, ny), so
    that a span is one contiguous block.
    """
    if not len(q):
        raise ValueError("dominance grid requires at least one eligible player")
    if len(q) > MAX_PLAYERS:  # so that every index fits the uint8 owner grid
        raise ValueError(f"{len(q)} eligible players exceeds the {MAX_PLAYERS}-player bound")
    xs, ys = pitch.cell_centers()
    qx, qy = q.T
    # Each player's squared x and y offsets. On the transposed grid a span's
    # d2 is the y offsets copied into each of its columns, plus each column's
    # x offset.
    dx2 = xs - qx[:, np.newaxis]
    dx2 *= dx2
    dy2 = ys - qy[:, np.newaxis]
    dy2 *= dy2
    spans = _column_spans(q, pitch, k)
    shape = (len(xs), len(ys))  # transposed: a column span is one block
    owner = np.empty(shape[::-1], dtype=np.uint8)
    # The transposed work grids. The masks live in owner's buffer until it is
    # laid out.
    d2 = np.empty(shape)
    mask = owner.view(bool).reshape(shape)
    best = np.full(shape, np.inf)
    second = np.full(shape, np.inf) if k == 2 else None
    owner_t = np.zeros(shape, dtype=np.uint8)
    for j, cols in enumerate(spans):
        span = d2[cols]
        np.copyto(span, dy2[j])
        span += dx2[j, cols, np.newaxis]  # the same sum as dx2 + dy2
        second_span = None if second is None else second[cols]
        _fold(j, span, best[cols], second_span, owner_t[cols], mask[cols])
    np.copyto(owner, owner_t.T)
    return owner, best.T, None if second is None else second.T


def compute_dominance_grid(
    frame: "TrackedFrame",
    pitch: PitchSpec,
    mp: MotionParams,
    excluded: Iterable[str] = (),
) -> DominanceField:
    """Assign every grid cell to the player reaching its center first, the
    one with the nearest predicted point.

    Ties are broken by the smaller player id (ids are totally ordered).
    """
    rows = _sorted_eligible(frame, excluded)
    q = frame.xy[rows] + frame.vxy[rows] * mp.reaction_time
    owner, _, _ = _partition(q, pitch, 1)
    return DominanceField(pitch, [frame.ids[i] for i in rows], owner)


def space_scores(
    field_: DominanceField, frame: "TrackedFrame", w: WeightParams
) -> SpaceScoreTable:
    """Weighted-area score per player: cell area times field weight, summed
    over owned cells. Players absent from the field (offside-excluded) get 0.

    Attackers use the attacking-direction weight, defenders the mirrored one.
    """
    teams = dict(zip(frame.ids, frame.teams.tolist()))
    defending = np.array([teams[pid] == DEFENDING for pid in field_.player_ids])
    owner = field_.owner.astype(np.intp)  # indexing and bincount would each cast it, slower
    weight = np.where(
        defending[owner],
        weight_grid(field_.pitch, w, attacking_right=False),
        weight_grid(field_.pitch, w, attacking_right=True),
    )
    sums = np.bincount(owner.ravel(), weights=weight.ravel(), minlength=len(field_.player_ids))
    index = {pid: i for i, pid in enumerate(field_.player_ids)}
    entries: dict[str, PlayerSpaceScore] = {}
    for pid in sorted(teams):
        if pid in index:
            ws = float(sums[index[pid]])
            entries[pid] = PlayerSpaceScore(pid, teams[pid], ws * field_.cell_area, weight_sum=ws)
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
# The batch path runs it once and keeps its best and second smallest squared
# distances: while one player moves, everyone else's are fixed. Each cell gets
# one limit, lim, the smallest squared distance of the others: second on the
# mover's own cells, best elsewhere. A probe wins a cell iff its squared
# distance is < lim, or == lim and the rival, the nearest of the others
# (_first_arrival), has a larger index. On another player's cell the rival is
# that cell's owner. Only the cells where a probe ties lim exactly need the
# rival, so it is ranked there alone, from every eligible player's predicted
# point. A +inf second (nobody else eligible) is never tied, and every probe
# wins it.
#
# The band is found in distances, the roots of the squared distances: own,
# from the unmoved point, against sqrt(lim). A probe moves the predicted point
# by at most `shift` (over 1 m when the clamp pulls an off-pitch player in),
# so by the triangle inequality its exact distance to a cell centre is within
# shift of the exact own distance. A computed squared distance is within
# 4.01 u of its exact value, relatively (u = eps / 2: two rounded differences,
# two squares and a sum), and its correctly rounded root within 3.01 u; so
# each computed distance is within 1.51 eps D of its exact value, D (`far`)
# being the largest distance from any of the candidate's points to any cell
# centre. With allowance = shift + 16 eps D, which also covers the roundings
# of shift, D, the allowance and gap = sqrt(lim) - own, every probe's computed
# distance is < sqrt(lim) where gap > allowance and > sqrt(lim) where gap <
# -allowance. sqrt is correctly rounded, hence monotone: a strictly smaller
# (larger) root comes from a strictly smaller (larger) squared distance, so
# there every probe's squared distance is < lim (> lim), as long as none
# overflows, which MAX_COORDINATE ensures for every accepted input. Only the
# band between them needs the 8 probes' squared distances, and only there can
# a probe tie lim.
#
# Every cell that a probe can win has own - allowance <= sqrt(best) (best is
# the rest squared distance outside the candidate's region, and its own
# squared distance inside it). A tile can hold such a cell only if bound -
# allowance <= the root of its max of best, bound being the root of the
# tile's lower squared-distance bound (see _tile_d2). sqrt is monotone, so
# bound is <= own in every cell of the tile, bitwise, and the root of the max
# is the max of the roots: the box of the passing tiles holds every cell a
# probe can win. One array pass per frame gives every candidate's probe
# points, allowance and tile test. Inside the box the band rule decides each
# cell exactly, so the box may hold more cells than a probe can win. It holds
# the candidate's whole region too, where own - allowance <= own = sqrt(best).
#
# Off the band a probe wins exactly the region's cells: there gap >= 0, as
# lim = second >= best = the own squared distance, bit for bit, and elsewhere
# gap <= 0, as lim = best <= it. weight_grid puts every weight on a lattice
# where any sum over cells is exact in any order, so each probe's won sum is
# the region's `weight_sum`, minus the weights of its band cells, plus those
# of the band cells the probe wins: the float that directional_space_deltas
# gets from its own partition, from the band cells alone.
# ---------------------------------------------------------------------------


def _tile_max(best: np.ndarray) -> np.ndarray:
    """Per-tile max of `best`, shape (ceil(ny / _TILE), ceil(nx / _TILE))."""
    ny, nx = best.shape
    n = ny - ny % _TILE
    rows = best[:n].reshape(-1, _TILE, nx).max(axis=1)
    if n < ny:
        rows = np.vstack([rows, best[n:].max(axis=0)])
    return np.maximum.reduceat(rows, np.arange(0, nx, _TILE), axis=1)


def _probe_frame(
    xy: np.ndarray, vxy: np.ndarray, best: np.ndarray, pitch: PitchSpec, mp: MotionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For C candidates (rows of xy, vxy), in one array pass: the (C, 8, 2)
    predicted points of their 8 clamped 1 m probes, the (C,) allowances in
    metres and the (C, ty, tx) tiles that may hold a cell where the distance
    minus the allowance is <= the root of best (see above)."""
    vel = vxy * mp.reaction_time
    q = xy + vel
    half = np.array([pitch.half_length, pitch.half_width])
    pred = np.clip(xy[:, np.newaxis] + DIRECTIONS_8, -half, half) + vel[:, np.newaxis]
    shift = np.hypot(*(pred - q[:, np.newaxis]).T).max(axis=0)
    far = np.hypot(*(np.abs(q) + half + pitch.grid_cell).T) + shift  # centres overhang < 1 cell
    allowance = shift + 16 * np.finfo(float).eps * far
    bound = np.sqrt(_tile_d2(q, pitch)[0])
    return pred, allowance, bound - allowance[:, np.newaxis, np.newaxis] <= np.sqrt(_tile_max(best))


def _tile_box(tiles: np.ndarray) -> tuple[slice, slice]:
    """The cell box of the tiles marked in the (ty, tx) mask `tiles`; empty if none."""
    rows, cols = (np.flatnonzero(tiles.any(axis=a)) * _TILE for a in (1, 0))
    if not rows.size:
        return np.s_[:0, :0]
    return np.s_[rows[0] : rows[-1] + _TILE, cols[0] : cols[-1] + _TILE]


def _probe_deltas(
    field_: DominanceField,
    best: np.ndarray,
    second: np.ndarray,
    points: np.ndarray,
    idx: int,
    box: tuple[slice, slice],
    pred: np.ndarray,
    allowance: float,
    weight: np.ndarray,
    region: float,
) -> np.ndarray:
    """Score change of player `idx` for its 8 probes over `box`, from the
    partition's `best` and `second` squared distances, the (P, 2) predicted
    points of every eligible player, the (8, 2) `pred` of its probes and the
    weight sum of its region (see above)."""
    xs, ys = field_.pitch.cell_centers()
    xs, ys = xs[box[1]], ys[box[0]]
    mine = field_.owner[box] == idx
    lim = np.where(mine, second[box], best[box]).ravel()
    gap = np.sqrt(lim) - np.sqrt(_sq_dist(xs, ys[:, np.newaxis], *points[idx]).ravel())
    band = np.flatnonzero(np.abs(gap) <= allowance)
    row, col = np.divmod(band, xs.size)
    qx, qy = pred.T
    probe = _sq_dist(xs[col, np.newaxis], ys[row, np.newaxis], qx, qy)
    band_lim = lim[band, np.newaxis]
    won = probe < band_lim
    tied = probe == band_lim
    at = np.flatnonzero(tied.any(axis=1))
    if at.size:
        rival = _first_arrival(points, xs[col[at]], ys[row[at]], skip=idx)
        won[at] |= tied[at] & (idx < rival)[:, np.newaxis]
    w = weight[box][row, col]
    sums = region - w[mine[row, col]].sum() + np.where(won, w[:, np.newaxis], 0.0).sum(axis=0)
    return sums * field_.cell_area - region * field_.cell_area  # minus the score


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
    points = xy + vxy * mp.reaction_time
    owner, best, second = _partition(points, pitch, 2)
    field_ = DominanceField(pitch, [frame.ids[i] for i in rows], owner)
    table = space_scores(field_, frame, w)
    if select is not None:
        delta_ids &= set(select(table))
    probed = [i for i, pid in enumerate(field_.player_ids) if pid in delta_ids]
    if not probed:
        return table
    best, second = np.ascontiguousarray(best), np.ascontiguousarray(second)  # row-major boxes
    pred, allowance, tiles = _probe_frame(xy[probed], vxy[probed], best, pitch, mp)
    for c, i in enumerate(probed):
        entry = table.entries[field_.player_ids[i]]
        weight = weight_grid(pitch, w, attacking_right=entry.team != DEFENDING)
        entry.deltas = _probe_deltas(
            field_, best, second, points, i, _tile_box(tiles[c]), pred[c], allowance[c], weight,
            entry.weight_sum,
        )
    return table
