import gc
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pitchspace import dominance
from pitchspace.dominance import (
    ATTACKING,
    DEFENDING,
    DIRECTIONS_8,
    MotionParams,
    batch_scores_with_deltas,
    compute_dominance_grid,
    directional_space_deltas,
    offside_positions,
    space_scores,
    _SUM_BLOCK,
    _TILE,
    _column_spans,
    _partition,
    _sq_dist,
    _tile_max,
    _won_sums,
)
from pitchspace.match_io import MAX_PLAYERS, PlayerState
from pitchspace.pitch import (
    MAX_COORDINATE, MAX_TRACKED_SPEED, PitchSpec, Point2, WeightParams, weight_grid,
)

from conftest import (
    arrival_time, find_player, make_frame, player, random_frame, with_players,
)

PITCH = PitchSpec()
MP = MotionParams()
W = WeightParams()

# Closed-form single-player score: the weight integral is separable,
# (integral of x_norm over x) * (integral of 1 - beta*|y|/(w/2) over y)
# = (105 * 1/2) * (68 * (1 - beta/2)) = 52.5 * 51 = 2677.5 weighted m^2.
SINGLE_PLAYER_SCORE = 2677.5


def nearest_neighbor_owner(frame, pitch):
    """Brute-force oracle: plain nearest-neighbor over squared distances."""
    players = sorted(frame.players, key=lambda p: p.player_id)
    xs, ys = pitch.cell_centers()
    owners = np.empty((pitch.ny, pitch.nx), dtype=np.int64)
    for iy, y in enumerate(ys):
        dx = np.array([[x - p.pos.x for p in players] for x in xs])
        dy = np.array([[y - p.pos.y for p in players] for _ in xs])
        owners[iy, :] = np.argmin(dx * dx + dy * dy, axis=1)
    return owners


def arrival_times(d2, mp):
    """Arrival times from squared distances to predicted points."""
    return mp.reaction_time + np.sqrt(d2) / mp.max_speed


def oracle_distance_stack(frame, pitch, mp, excluded=()):
    """Independent partition over the (P, ny, nx) squared-distance stack.

    Returns (player ids, owner, best, second_idx, second): argmin/min over the
    id-sorted players, then again with each cell's owner masked out.
    """
    players = sorted(
        (p for p in frame.players if p.player_id not in excluded), key=lambda p: p.player_id
    )
    xs, ys = pitch.cell_centers()
    rt = mp.reaction_time
    pred = np.array([(p.pos.x + p.vel.x * rt, p.pos.y + p.vel.y * rt) for p in players])
    dx = xs[np.newaxis, np.newaxis, :] - pred[:, 0, np.newaxis, np.newaxis]
    dy = ys[np.newaxis, :, np.newaxis] - pred[:, 1, np.newaxis, np.newaxis]
    d2 = dx * dx + dy * dy
    owner = np.argmin(d2, axis=0)
    best = np.min(d2, axis=0)
    np.put_along_axis(d2, owner[np.newaxis], np.inf, axis=0)
    second_idx = np.argmin(d2, axis=0)
    second = np.min(d2, axis=0)
    return [p.player_id for p in players], owner, best, second_idx, second


def oracle_partition(xy, vxy, pitch, mp):
    """The full-grid partition: every player's update runs over every cell.

    Returns (owner, best, second) like dominance._partition, with the same
    arithmetic: squared distances dx2 + dy2 and the two smallest kept per cell.
    """
    xs, ys = pitch.cell_centers()
    qx, qy = (xy + vxy * mp.reaction_time).T
    dx2 = xs - qx[:, np.newaxis]
    dx2 *= dx2
    dy2 = ys - qy[:, np.newaxis]
    dy2 *= dy2
    shape = (len(ys), len(xs))
    best, second = (np.full(shape, np.inf) for _ in range(2))
    owner = np.zeros(shape, dtype=np.uint8)
    for j in range(len(xy)):
        d2 = dx2[j] + dy2[j, :, np.newaxis]
        beats_best = d2 < best
        second = np.minimum(second, np.maximum(best, d2))
        best = np.minimum(best, d2)
        owner[beats_best] = j
    return owner, best, second


def oracle_scores(frame, pitch, w, ids, owner):
    """Two bincounts, one per team weight, picked per player: {id: score}."""
    teams = {p.player_id: p.team for p in frame.players}
    flat = owner.ravel()
    sums_att = np.bincount(flat, weights=weight_grid(pitch, w, True).ravel(), minlength=len(ids))
    sums_def = np.bincount(flat, weights=weight_grid(pitch, w, False).ravel(), minlength=len(ids))
    return {
        pid: float((sums_def if teams[pid] == DEFENDING else sums_att)[i] * pitch.grid_cell ** 2)
        for i, pid in enumerate(ids)
    }


def oracle_deltas(frame, pid, pitch, mp, w, excluded):
    """Space-score change for the 8 clamped 1 m probes, each a full oracle partition."""
    target = find_player(frame, pid)

    def score(f):
        ids, owner, *_ = oracle_distance_stack(f, pitch, mp, excluded)
        return oracle_scores(f, pitch, w, ids, owner)[pid]

    base = score(frame)
    deltas = np.empty(8)
    for k, (dx, dy) in enumerate(DIRECTIONS_8):
        moved = Point2(
            min(max(target.pos.x + dx, -pitch.half_length), pitch.half_length),
            min(max(target.pos.y + dy, -pitch.half_width), pitch.half_width),
        )
        players = [replace(p, pos=moved) if p.player_id == pid else p for p in frame.players]
        deltas[k] = score(with_players(frame, players)) - base
    return deltas


def oracle_won_sums(won, weight):
    """Per probe k, the weights of the cells where won[:, k], added one by
    one in cell order from 0.0 in Python floats."""
    sums = [0.0] * 8
    for row, w in zip(won.tolist(), weight.tolist()):
        for k, hit in enumerate(row):
            if hit:
                sums[k] += w
    return np.array(sums)


def oracle_probe_box(pitch, best, player, mp):
    """The full-grid reach rule: the box around every cell where the player's
    own distance minus the allowance is <= the root of best (the squared
    distance of oracle_distance_stack); None if there is none.
    The allowance is shift plus 16 eps times the largest distance from the
    predicted point, moved by up to shift, to a cell centre, shift being the
    largest move of the 8 clamped probes."""
    xs, ys = pitch.cell_centers()
    rt = mp.reaction_time
    pos = np.array([player.pos.x, player.pos.y])
    vel = np.array([player.vel.x, player.vel.y]) * rt
    half = np.array([pitch.half_length, pitch.half_width])
    pred = np.clip(pos + DIRECTIONS_8, -half, half) + vel
    shift = np.hypot(*(pred - (pos + vel)).T).max()
    far = np.hypot(*(np.abs(pos + vel) + half + pitch.grid_cell)) + shift
    allowance = shift + 16 * np.finfo(float).eps * far
    qx, qy = pos + vel
    dx = xs - qx
    dy = ys[:, np.newaxis] - qy
    own = np.sqrt(dx * dx + dy * dy)
    reach = own - allowance <= np.sqrt(best)
    rows = np.flatnonzero(reach.any(axis=1))
    cols = np.flatnonzero(reach.any(axis=0))
    if not rows.size:
        return None
    return np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]


def recorded_probe_boxes(monkeypatch):
    """Patch dominance._tile_box to record every box that _probe_deltas uses."""
    boxes = []
    real = dominance._tile_box

    def recording(tiles):
        boxes.append(real(tiles))
        return boxes[-1]

    monkeypatch.setattr(dominance, "_tile_box", recording)
    return boxes


def assert_oracle_boxes(frame, pitch, excluded, candidates, boxes, mp=MP):
    """Each candidate, in id order, was probed in a box that holds the oracle's box."""
    best = oracle_distance_stack(frame, pitch, mp, excluded)[2]
    assert len(boxes) == len(candidates)
    for box, pid in zip(boxes, sorted(candidates)):
        want = oracle_probe_box(pitch, best, find_player(frame, pid), mp)
        if want is None:
            continue
        for got, need, n in zip(box, want, best.shape):
            start, stop, _ = got.indices(n)
            assert start <= need.start and need.stop <= stop, (pid, box, want)


class TestArrivalTime:
    def test_stationary_player(self):
        ps = player("P", ATTACKING, 0.0, 0.0)
        assert arrival_time(ps.pos, ps.vel, Point2(7.8, 0.0), MP) == pytest.approx(1.2)

    def test_target_at_predicted_position(self):
        ps = player("P", ATTACKING, 0.0, 0.0, vx=3.0, vy=-2.0)
        target = Point2(3.0 * 0.2, -2.0 * 0.2)
        assert arrival_time(ps.pos, ps.vel, target, MP) == pytest.approx(0.2)

    def test_velocity_carries_player_onto_target(self):
        ps = player("P", ATTACKING, 0.0, 0.0, vx=5.0)
        assert arrival_time(ps.pos, ps.vel, Point2(1.0, 0.0), MP) == pytest.approx(0.2)

    def test_at_least_reaction_time(self, rng):
        for _ in range(100):
            ps = player("P", ATTACKING, rng.uniform(-50, 50), rng.uniform(-30, 30),
                        vx=rng.uniform(-5, 5), vy=rng.uniform(-5, 5))
            t = arrival_time(ps.pos, ps.vel, Point2(rng.uniform(-50, 50), rng.uniform(-30, 30)), MP)
            assert t >= MP.reaction_time

    def test_translation_equivariance(self, rng):
        for _ in range(50):
            x, y = rng.uniform(-40, 40, 2)
            vx, vy = rng.uniform(-5, 5, 2)
            tx, ty = rng.uniform(-40, 40, 2)
            sx, sy = rng.uniform(-10, 10, 2)
            t0 = arrival_time((x, y), (vx, vy), (tx, ty), MP)
            t1 = arrival_time((x + sx, y + sy), (vx, vy), (tx + sx, ty + sy), MP)
            assert t0 == pytest.approx(t1, abs=1e-12)

    @pytest.mark.parametrize("field", ["max_speed", "reaction_time"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_motion_params_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            MotionParams(**{field: value})

    def test_reaction_time_drift_stays_within_max_coordinate(self):
        # the kernel sweep's extreme cases load; a drift past 1e150 m does not
        MotionParams(reaction_time=1e14, max_speed=1000.0)
        MotionParams(reaction_time=3e15, max_speed=7.8)
        MotionParams(reaction_time=MAX_COORDINATE / MAX_TRACKED_SPEED)
        for rt in (1e149, 1e160, 1e300):
            with pytest.raises(ValueError, match="reaction_time must be finite and in"):
                MotionParams(reaction_time=rt)

    def test_max_speed_floor_is_tied_to_max_coordinate(self):
        MotionParams(max_speed=1.0 / MAX_COORDINATE)
        for speed in (1e-151, 1e-200, 1e-308, 0.0, -7.8):
            with pytest.raises(ValueError, match="max_speed must be finite and >= 1e-150"):
                MotionParams(max_speed=speed)


class TestDominanceGrid:
    def test_single_player_owns_everything(self):
        frame = make_frame([player("A1", ATTACKING, 3.0, -7.0)])
        field = compute_dominance_grid(frame, PITCH, MP)
        assert field.owned_cell_counts() == {"A1": PITCH.nx * PITCH.ny}

    def test_two_players_split_halves(self):
        frame = make_frame(
            [player("A1", ATTACKING, -10.0, 0.0), player("A2", ATTACKING, 10.0, 0.0)]
        )
        field = compute_dominance_grid(frame, PITCH, MP)
        counts = field.owned_cell_counts()
        assert counts["A1"] == counts["A2"] == PITCH.nx * PITCH.ny // 2

    def test_zero_eligible_players_errors(self):
        frame = make_frame([player("A1", ATTACKING, 0.0, 0.0)])
        with pytest.raises(ValueError):
            compute_dominance_grid(frame, PITCH, MP, excluded={"A1"})

    def test_partition_is_exact(self, rng):
        for _ in range(5):
            frame = random_frame(rng)
            field = compute_dominance_grid(frame, PITCH, MP)
            assert sum(field.owned_cell_counts().values()) == PITCH.nx * PITCH.ny
            _, best, second = _partition(frame.xy + frame.vxy * MP.reaction_time, PITCH, 2)
            assert np.all(best >= 0.0)
            assert np.all(second >= best)

    def test_classical_voronoi_degeneracy(self, rng):
        mp0 = MotionParams(reaction_time=0.0, max_speed=7.8)
        for _ in range(5):
            frame = random_frame(rng, speed=0.0)
            field = compute_dominance_grid(frame, PITCH, mp0)
            oracle = nearest_neighbor_owner(frame, PITCH)
            assert np.array_equal(field.owner, oracle)

    def test_tie_break_prefers_smaller_id(self):
        # Identical positions: every cell is an exact tie.
        frame = make_frame(
            [player("Z9", ATTACKING, 0.0, 0.0), player("A1", ATTACKING, 0.0, 0.0)]
        )
        field = compute_dominance_grid(frame, PITCH, MP)
        assert field.owned_cell_counts() == {"A1": PITCH.nx * PITCH.ny, "Z9": 0}


def partition_players(rng, case, pitch):
    """(xy, vxy) of a seeded partition sweep case, in id order."""
    half = np.array([pitch.half_length, pitch.half_width])
    if case.startswith("random_"):
        n = int(case.split("_")[1])
        return rng.uniform(-1.05, 1.05, (n, 2)) * half, rng.uniform(-4, 4, (n, 2))
    if case == "coincident":
        # groups of three on one point: three-way ties at every cell
        xy = np.repeat(rng.uniform(-1, 1, (7, 2)) * half, 3, axis=0)[:20]
        return xy, np.zeros_like(xy)
    if case == "mirrored":
        # pairs mirrored exactly about a column and a row of cell centres:
        # the cells on them tie in squared distance
        xs, ys = pitch.cell_centers()
        centre = np.array([rng.choice(xs[10:-10]), rng.choice(ys[10:-10])])
        offsets = rng.integers(1, 12, (5, 2)) * pitch.grid_cell
        signs = ([1, 1], [-1, 1], [1, -1], [-1, -1])
        xy = np.concatenate([centre + offsets * sign for sign in signs])
        return xy, np.zeros_like(xy)
    if case == "lattice":
        # whole metres: many cells are equidistant from two or three players
        xy = rng.integers(-8, 9, (20, 2)).astype(float)
        return xy, np.zeros_like(xy)
    if case == "rounding_tie":
        # a pair mirrored about a column of cell centres, the first one ulp
        # farther out, among random players: on that column the first is
        # strictly farther in squared distance, though many of those cells
        # round to one arrival time, and the strictly nearer second must win
        xs, _ = pitch.cell_centers()
        centre, offset = rng.choice(xs[10:-10]), rng.integers(1, 5) * pitch.grid_cell
        y = rng.uniform(-1, 1) * half[1]
        pair = [(np.nextafter(centre - offset, -np.inf), y), (centre + offset, y)]
        xy = np.concatenate([pair, rng.uniform(-1.05, 1.05, (6, 2)) * half])
        return xy, np.zeros_like(xy)
    far = np.array([(1, 1), (1, 1), (1, 1), (-1, -1), (1, -1)]) * MAX_COORDINATE
    if case == "max_coordinate":
        xy = rng.uniform(-1, 1, (20, 2)) * half
        xy[rng.choice(20, 5, replace=False)] = far
        return xy, np.zeros_like(xy)
    if case == "only_max_coordinate":
        # every squared distance rounds to 2e300: each tile's bounds are equal
        xy = rng.permutation(far)
        return xy, np.zeros_like(xy)
    raise ValueError(case)


PARTITION_CASES = [
    "random_1", "random_2", "random_3", "random_20", "coincident", "mirrored", "lattice",
    "max_coordinate", "only_max_coordinate", "rounding_tie",
]


# The partition sees the motion only through the predicted points: at a
# 1e14 s reaction time every moving player drifts up to 5.7e14 m out, where
# squared distances to the cell centres are near 1e29 m^2.
SWEEP_MOTIONS = [
    pytest.param(MP, id="default_motion"),
    pytest.param(MotionParams(reaction_time=1e14, max_speed=1000.0), id="rt_1e14"),
]


class TestColumnBandPartition:
    # 0.75 m gives ragged tiles on both axes (140 x 91 cells), 1.0 m on both
    # (105 x 68), 0.5 m on x only (210 x 136).
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mp", SWEEP_MOTIONS)
    @pytest.mark.parametrize("grid_cell", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("case", PARTITION_CASES)
    def test_partition_matches_full_grid_oracle(self, grid_cell, case, mp, k):
        # k = 1 keeps the owner and best alone (second is None), k = 2 all three.
        pitch = PitchSpec(grid_cell=grid_cell)
        xs, ys = pitch.cell_centers()
        rng = np.random.default_rng([2026, PARTITION_CASES.index(case), int(grid_cell * 4)])
        for _ in range(3):
            xy, vxy = partition_players(rng, case, pitch)
            got = _partition(xy + vxy * mp.reaction_time, pitch, k)
            assert len(got) == 3
            want = oracle_partition(xy, vxy, pitch, mp)
            if k == 1:
                assert got[2] is None
            for g, w in zip(got[:k + 1], want):
                assert g.shape == (pitch.ny, pitch.nx)
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            assert got[0].flags.c_contiguous
            if case == "rounding_tie" and mp is MP:
                # some cell's two smallest squared distances differ but round
                # to one arrival time, and the nearer player owns it
                q = xy + vxy * mp.reaction_time
                d2 = (xs - q[:, 0, None, None]) ** 2 + (ys[:, None] - q[:, 1, None, None]) ** 2
                a, b = np.sort(d2, axis=0)[:2]
                assert ((a < b) & (arrival_times(a, mp) == arrival_times(b, mp))).any()
                assert (d2.argmin(axis=0) == want[0]).all()

    def test_more_than_max_players_is_refused(self):
        # The owner grid is uint8: an index past MAX_PLAYERS is refused, never wrapped.
        rng = np.random.default_rng(2034)
        xy = rng.uniform(-50, 50, (MAX_PLAYERS + 1, 2))
        for k in (1, 2):
            owner, _, _ = _partition(xy[:MAX_PLAYERS], PITCH, k)
            assert owner.dtype == np.uint8 and owner.max() == MAX_PLAYERS - 1
            with pytest.raises(ValueError, match="23 eligible players exceeds the 22-player bound"):
                _partition(xy, PITCH, k)
        frame = make_frame([player(f"A{i:02d}", ATTACKING, x, y) for i, (x, y) in enumerate(xy)])
        with pytest.raises(ValueError, match="exceeds the 22-player bound"):
            compute_dominance_grid(frame, PITCH, MP)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mp", SWEEP_MOTIONS)
    @pytest.mark.parametrize("grid_cell", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("case", PARTITION_CASES)
    def test_players_outside_their_span_are_above_second(self, grid_cell, case, mp, k):
        # Outside its span a player's squared distance is strictly above the
        # cell's final k-th smallest (best for k = 1, second for k = 2), so
        # skipping it there changes nothing.
        pitch = PitchSpec(grid_cell=grid_cell)
        xs, ys = pitch.cell_centers()
        rng = np.random.default_rng([2027, PARTITION_CASES.index(case), int(grid_cell * 4)])
        for _ in range(3):
            xy, vxy = partition_players(rng, case, pitch)
            q = xy + vxy * mp.reaction_time
            dx2 = (xs - q[:, :1]) ** 2
            dy2 = (ys - q[:, 1:]) ** 2
            d2 = dx2[:, np.newaxis, :] + dy2[:, :, np.newaxis]
            kth = np.sort(d2, axis=0)[k - 1] if len(q) >= k else np.full(d2.shape[1:], np.inf)
            spans = _column_spans(q, pitch, k)
            assert len(spans) == len(q)
            for j, span in enumerate(spans):
                outside = np.ones(pitch.nx, dtype=bool)
                outside[span] = False
                assert (d2[j][:, outside] > kth[:, outside]).all(), (j, span)
                assert len(q) >= k or not outside.any()  # no k-th: full width

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("grid_cell", [0.5, 0.75])
    @pytest.mark.parametrize("case", PARTITION_CASES)
    def test_spans_are_the_hull_of_the_tiles_under_the_kth_bound(self, grid_cell, case, k):
        # A span is no wider than it must be: it is the hull of the tile
        # columns where the player's lower bound is <= the tile's k-th
        # smallest upper bound (found here by sorting).
        pitch = PitchSpec(grid_cell=grid_cell)
        rng = np.random.default_rng([2028, PARTITION_CASES.index(case), int(grid_cell * 4)])
        for _ in range(3):
            xy, vxy = partition_players(rng, case, pitch)
            q = xy + vxy * MP.reaction_time
            lb, ub = dominance._tile_d2(q, pitch)
            ubk = np.sort(ub, axis=0)[k - 1] if len(q) >= k else np.full(ub.shape[1:], np.inf)
            spans = _column_spans(q, pitch, k)
            for j, span in enumerate(spans):
                cols = np.flatnonzero((lb[j] <= ubk).any(axis=0))
                start, stop = (cols[0] * _TILE, (cols[-1] + 1) * _TILE) if cols.size else (0, 0)
                assert range(pitch.nx)[span] == range(pitch.nx)[start:stop], (j, span)


class TestSpaceScores:
    def test_single_attacker_closed_form(self):
        frame = make_frame([player("A1", ATTACKING, 0.0, 0.0)])
        field = compute_dominance_grid(frame, PITCH, MP)
        score = space_scores(field, frame, W).score("A1")
        assert score == pytest.approx(SINGLE_PLAYER_SCORE, rel=0.01)

    def test_single_defender_mirrored_integral(self):
        frame = make_frame([player("D1", DEFENDING, 5.0, 3.0)])
        field = compute_dominance_grid(frame, PITCH, MP)
        score = space_scores(field, frame, W).score("D1")
        assert score == pytest.approx(SINGLE_PLAYER_SCORE, rel=0.01)

    def test_monotone_weight_orders_symmetric_attackers(self):
        frame = make_frame(
            [player("A1", ATTACKING, -10.0, 0.0), player("A2", ATTACKING, 10.0, 0.0)]
        )
        field = compute_dominance_grid(frame, PITCH, MP)
        table = space_scores(field, frame, W)
        assert table.score("A1") < table.score("A2")

    def test_excluded_players_score_zero(self):
        frame = make_frame(
            [player("A1", ATTACKING, 0.0, 0.0), player("A2", ATTACKING, 20.0, 0.0)]
        )
        field = compute_dominance_grid(frame, PITCH, MP, excluded={"A2"})
        table = space_scores(field, frame, W)
        assert table.entries["A2"].excluded_offside
        assert table.score("A2") == 0.0
        assert np.all(table.entries["A2"].deltas == 0.0)

    def test_mirror_symmetry_across_x_axis(self, rng):
        frame = random_frame(rng)
        mirrored = make_frame(
            [
                PlayerState(p.player_id, p.team, Point2(p.pos.x, -p.pos.y),
                            Point2(p.vel.x, -p.vel.y))
                for p in frame.players
            ],
            ball_pos=(frame.ball.pos.x, -frame.ball.pos.y),
        )
        f1 = compute_dominance_grid(frame, PITCH, MP)
        f2 = compute_dominance_grid(mirrored, PITCH, MP)
        # The partition mirrors exactly (the grid is y-symmetric); scores see
        # the same weights accumulated in flipped row order, so they agree to
        # summation rounding.
        assert np.array_equal(f1.owner, f2.owner[::-1, :])
        t1 = space_scores(f1, frame, W)
        t2 = space_scores(f2, mirrored, W)
        for pid in t1.entries:
            assert t1.score(pid) == pytest.approx(t2.score(pid), rel=1e-12)

    def test_grid_refinement_under_two_percent(self, rng):
        frame = random_frame(rng)
        fine_pitch = PitchSpec(grid_cell=0.25)
        coarse = space_scores(compute_dominance_grid(frame, PITCH, MP), frame, W)
        fine = space_scores(compute_dominance_grid(frame, fine_pitch, MP), frame, W)
        for pid in coarse.entries:
            c, f = coarse.score(pid), fine.score(pid)
            assert abs(f - c) < 0.02 * max(c, f)


class TestDirectionalDeltas:
    def test_single_player_all_zero(self):
        frame = make_frame([player("A1", ATTACKING, -20.0, 5.0)], ball_pos=(0.0, 0.0))
        deltas = directional_space_deltas(frame, "A1", PITCH, MP, W)
        assert np.all(deltas == 0.0)

    def test_bisector_shift_strip_mass(self):
        # Moving the right player +1 m shifts the bisector +0.5 m; the lost
        # strip's weighted mass integrates in closed form to
        # (26.375/105) * 51 = 12.810714... weighted m^2.
        frame = make_frame(
            [player("A1", ATTACKING, -10.0, 0.0), player("A2", ATTACKING, 10.0, 0.0)],
            ball_pos=(20.0, 0.0),
        )
        deltas = directional_space_deltas(frame, "A2", PITCH, MP, W)
        strip_mass = (26.375 / 105.0) * 51.0
        assert deltas[0] == pytest.approx(-strip_mass, rel=0.01)

    def test_unknown_player_errors(self):
        frame = make_frame([player("A1", ATTACKING, 0.0, 0.0)])
        with pytest.raises(ValueError):
            directional_space_deltas(frame, "NOBODY", PITCH, MP, W)

    def test_x_axis_mirror_swaps_up_down_directions(self, rng):
        frame = random_frame(rng, n_attackers=4, n_defenders=4)
        mirrored = make_frame(
            [
                PlayerState(p.player_id, p.team, Point2(p.pos.x, -p.pos.y),
                            Point2(p.vel.x, -p.vel.y))
                for p in frame.players
            ],
            ball_pos=(frame.ball.pos.x, -frame.ball.pos.y),
        )
        pid = "A00"
        d0 = directional_space_deltas(frame, pid, PITCH, MP, W, excluded=())
        d1 = directional_space_deltas(mirrored, pid, PITCH, MP, W, excluded=())
        swapped = d1[[0, 7, 6, 5, 4, 3, 2, 1]]  # theta -> -theta
        assert np.allclose(d0, swapped, atol=1e-9)

    @pytest.mark.parametrize(
        "build, pitch",
        [
            pytest.param(
                lambda rng: random_frame(rng, n_attackers=6, n_defenders=6), PITCH, id="random"
            ),
            # Beyond the goal lines and a touchline: the clamp pulls probes in
            # by more than 1 m, so the crop must use the actual shift.
            pytest.param(
                lambda rng: make_frame(
                    [
                        player("A1", ATTACKING, -57.0, -10.0, 1.0, 0.5),
                        player("A2", ATTACKING, 20.0, 5.0),
                        player("B1", DEFENDING, 60.0, 0.0, -2.0, 1.0),
                        player("B2", DEFENDING, 58.0, 40.0),
                        player("B3", DEFENDING, 40.0, -10.0),
                    ],
                    ball_pos=(0.0, 0.0),
                ),
                PITCH,
                id="off_pitch",
            ),
            # A2 owns the cell centre (0.25, 0.25), and A1 and B1 tie 5 m from
            # it; A2's +y probe makes that an exact three-way tie.
            pytest.param(
                lambda rng: make_frame(
                    [
                        player("A1", ATTACKING, -4.75, 0.25),
                        player("A2", ATTACKING, 0.25, 4.25),
                        player("B1", DEFENDING, 5.25, 0.25),
                    ],
                    ball_pos=(10.0, 0.0),
                ),
                PITCH,
                id="three_way_tie",
            ),
            # A2 is offside, which leaves A1 as the only eligible player.
            pytest.param(
                lambda rng: make_frame(
                    [player("A1", ATTACKING, -20.0, 5.0, 1.5, -1.0), player("A2", ATTACKING, 30.0, 0.0)],
                    ball_pos=(0.0, 0.0),
                ),
                PITCH,
                id="single_eligible",
            ),
            pytest.param(
                lambda rng: random_frame(rng, n_attackers=6, n_defenders=6),
                PitchSpec(grid_cell=1.0),
                id="coarse_grid",
            ),
            # Exact ties on whole cell columns: each +-x probe puts the mover
            # the same distance from a column (x = 0.25 or -0.75) as the other
            # player. A1 (smaller index) wins its ties, inside its own region
            # (-x probe) and against the owner A2 outside it (+x probe); A2
            # loses its ties to A1 inside its region (+x) and outside it (-x).
            pytest.param(
                lambda rng: make_frame(
                    [player("A1", ATTACKING, -2.75, 0.25), player("A2", ATTACKING, 2.25, 0.25)],
                    ball_pos=(20.0, 0.0),
                ),
                PITCH,
                id="exact_tie_columns",
            ),
            # The same ties with the tied pair's id order swapped (A7 < B2) and
            # a third player who owns, or is runner-up in, part of the grid.
            pytest.param(
                lambda rng: make_frame(
                    [
                        player("B2", DEFENDING, -2.75, 0.25),
                        player("A7", ATTACKING, 2.25, 0.25),
                        player("C1", DEFENDING, 0.25, 20.25),
                    ],
                    ball_pos=(20.0, 0.0),
                ),
                PITCH,
                id="exact_tie_columns_third_player",
            ),
            # Nobody else is eligible, so the rest time is +inf everywhere and
            # every probe stays inside the pitch.
            pytest.param(
                lambda rng: make_frame(
                    [player("D1", DEFENDING, 12.0, -7.5, -2.0, 3.0)], ball_pos=(0.0, 0.0)
                ),
                PITCH,
                id="lone_player_infinite_rest",
            ),
        ],
    )
    def test_batch_path_matches_naive_exactly(self, rng, monkeypatch, build, pitch):
        frame = build(rng)
        excluded = offside_positions(frame)
        candidates = sorted(p.player_id for p in frame.players if p.player_id not in excluded)
        ids, owner, best, _, second = oracle_distance_stack(frame, pitch, MP, excluded)
        rows = [frame.ids.index(pid) for pid in ids]
        got_partition = _partition(frame.xy[rows] + frame.vxy[rows] * MP.reaction_time, pitch, 2)
        for got, want in zip(got_partition, (owner, best, second)):
            assert got.tobytes() == want.astype(got.dtype).tobytes()
        field = compute_dominance_grid(frame, pitch, MP, excluded)
        assert field.player_ids == ids
        assert field.owner.tobytes() == owner.astype(np.uint8).tobytes()

        expected = oracle_scores(frame, pitch, W, ids, owner)
        boxes = recorded_probe_boxes(monkeypatch)
        table = batch_scores_with_deltas(frame, pitch, MP, W, candidates, excluded)
        assert_oracle_boxes(frame, pitch, excluded, candidates, boxes)
        naive = space_scores(field, frame, W)
        for pid in candidates:
            assert table.entries[pid].score == naive.score(pid) == expected[pid]
            nd = directional_space_deltas(frame, pid, pitch, MP, W, excluded=excluded)
            assert table.entries[pid].deltas.tobytes() == nd.tobytes()
            od = oracle_deltas(frame, pid, pitch, MP, W, excluded)
            assert nd.tobytes() == od.tobytes()

    def test_batch_path_matches_naive_on_exact_ties(self):
        frame = make_frame(
            [player("A1", ATTACKING, -10.0, 0.0), player("A2", ATTACKING, 10.0, 0.0)],
            ball_pos=(20.0, 0.0),
        )
        table = batch_scores_with_deltas(frame, PITCH, MP, W, ["A1", "A2"])
        for pid in ("A1", "A2"):
            nd = directional_space_deltas(frame, pid, PITCH, MP, W, excluded=())
            assert np.array_equal(table.entries[pid].deltas, nd)

    @pytest.mark.parametrize(
        "runner_id, third_id",
        [("A1", "C3"), ("C1", "A3")],
        ids=["runner_up_smaller", "runner_up_larger"],
    )
    def test_probe_tying_the_runner_up_exactly(self, runner_id, third_id):
        # B5 owns the cell column x = 0.25, 2 m away; the runner-up is 3 m
        # away on the other side. B5's +x probe is 3 m from it too, an exact
        # tie on B5's own cells that the smaller of the two ids must win.
        frame = make_frame(
            [
                player("B5", ATTACKING, 2.25, 0.25),
                player(runner_id, DEFENDING, -2.75, 0.25),
                player(third_id, DEFENDING, 0.25, 30.25),
            ],
            ball_pos=(20.0, 0.0),
        )
        ids, owner, best, second_idx, second = oracle_distance_stack(frame, PITCH, MP)
        cand, runner = ids.index("B5"), ids.index(runner_id)
        assert (runner < cand) == (runner_id < "B5")
        xs, ys = PITCH.cell_centers()
        probe = _sq_dist(xs, ys[:, np.newaxis], 3.25, 0.25)
        tied = (owner == cand) & (second_idx == runner) & (probe == second)
        assert tied.any()
        # the tied cells are in the band, where the probes' squared distances decide
        row = frame.ids.index("B5")
        _, allowance, _ = dominance._probe_frame(
            frame.xy[[row]], frame.vxy[[row]], best, PITCH, MP
        )
        own = np.sqrt(_sq_dist(xs, ys[:, np.newaxis], 2.25, 0.25))
        assert (np.abs(np.sqrt(second) - own)[tied] <= allowance[0]).all()
        table = batch_scores_with_deltas(frame, PITCH, MP, W, ["B5"], excluded=())
        nd = directional_space_deltas(frame, "B5", PITCH, MP, W, excluded=())
        assert table.entries["B5"].deltas.tobytes() == nd.tobytes()

    def test_exact_tie_columns_are_exact(self):
        # The exact_tie_columns case above relies on these bitwise ties.
        xs, ys = PITCH.cell_centers()
        for mover_x, other_x, column in ((3.25, -2.75, 0.25), (-3.75, 2.25, -0.75)):
            mover = _sq_dist(xs, ys[:, np.newaxis], mover_x, 0.25)
            other = _sq_dist(xs, ys[:, np.newaxis], other_x, 0.25)
            col = np.flatnonzero(xs == column)
            assert col.size == 1
            assert np.array_equal(mover[:, col], other[:, col])

    def test_batch_path_matches_naive_on_random_coarse_frames(self):
        pitch = PitchSpec(grid_cell=1.0)
        rng = np.random.default_rng(2024)
        for _ in range(10):
            frame = random_frame(rng, n_attackers=6, n_defenders=6)
            excluded = offside_positions(frame)
            candidates = sorted(p.player_id for p in frame.players if p.player_id not in excluded)
            table = batch_scores_with_deltas(frame, pitch, MP, W, candidates, excluded)
            for pid in candidates:
                nd = directional_space_deltas(frame, pid, pitch, MP, W, excluded=excluded)
                assert table.entries[pid].deltas.tobytes() == nd.tobytes()

    def test_partition_resolves_rounding_ties(self):
        # A1 sits one ulp farther out than the mirror image of B1, so on the
        # bisector column A1 is strictly farther in squared distance, though
        # the time formula rounds both to one arrival. The strictly nearer B1
        # wins: as owner in the upper half, and as runner-up in the lower
        # half, which C1 owns. So the partition does not depend on max_speed.
        ax, bx, y = -9.750000000000002, 10.25, 0.25
        xs, ys = PITCH.cell_centers()
        d2_a, d2_b = (_sq_dist(xs, ys[:, np.newaxis], x, y) for x in (ax, bx))
        rounding_tie = (d2_a > d2_b) & (arrival_times(d2_a, MP) == arrival_times(d2_b, MP))
        frame = make_frame(
            [
                player("A1", ATTACKING, ax, y),
                player("B1", DEFENDING, bx, y),
                player("C1", DEFENDING, 0.25, -18.0),
            ],
            ball_pos=(20.0, 0.0),
        )
        owner = compute_dominance_grid(frame, PITCH, MP).owner
        assert np.any(rounding_tie & (owner == 1))
        assert not np.any(rounding_tie & (owner == 0))
        slow = MotionParams(reaction_time=MP.reaction_time, max_speed=1.0)
        assert compute_dominance_grid(frame, PITCH, slow).owner.tobytes() == owner.tobytes()
        ids, want, best, second_idx, second = oracle_distance_stack(frame, PITCH, MP)
        assert np.any(rounding_tie & (want == 2) & (second_idx == 1))
        rows = [frame.ids.index(pid) for pid in ids]
        got_partition = _partition(frame.xy[rows] + frame.vxy[rows] * MP.reaction_time, PITCH, 2)
        assert len(got_partition) == 3
        for got, w in zip(got_partition, (want, best, second)):
            assert got.tobytes() == w.astype(got.dtype).tobytes()

    @pytest.mark.parametrize("grid_cell", [0.5, 0.75, 1.0])
    def test_probe_box_holds_full_grid_rule(self, monkeypatch, grid_cell):
        # 0.75 m gives ragged tiles on both axes (140 x 91 cells), 1.0 m on
        # both (105 x 68), 0.5 m on x only (210 x 136).
        pitch = PitchSpec(grid_cell=grid_cell)
        rng = np.random.default_rng(2025)
        boxes = recorded_probe_boxes(monkeypatch)
        for _ in range(8):
            frame = random_frame(rng, n_attackers=8, n_defenders=8, speed=6.0)
            excluded = offside_positions(frame)
            candidates = [p.player_id for p in frame.players if p.player_id not in excluded]
            boxes.clear()
            batch_scores_with_deltas(frame, pitch, MP, W, candidates, excluded)
            assert_oracle_boxes(frame, pitch, excluded, candidates, boxes)

    @pytest.mark.parametrize("shape", [(136, 210), (68, 105), (91, 140), (8, 8), (1, 3), (9, 17)])
    def test_tile_max_is_per_tile_max(self, rng, shape):
        best = rng.uniform(0.2, 9.0, shape)
        want = np.array(
            [
                [best[r : r + _TILE, c : c + _TILE].max() for c in range(0, shape[1], _TILE)]
                for r in range(0, shape[0], _TILE)
            ]
        )
        assert _tile_max(best).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "mp",
        [
            pytest.param(MP, id="default_motion"),
            # Moving players drift 1e14 or 3e15 m out per m/s of speed, where
            # one ulp of a distance is 1/64 m or 1/2 m, far beyond any fixed
            # rounding term: the allowance must scale with the distances.
            pytest.param(MotionParams(reaction_time=1e14, max_speed=1000.0), id="rt_1e14"),
            pytest.param(MotionParams(reaction_time=3e15, max_speed=7.8), id="rt_3e15"),
        ],
    )
    @pytest.mark.parametrize("grid_cell", [0.5, 0.75, 1.0])
    def test_probe_kernel_sweep_matches_naive(self, monkeypatch, grid_cell, mp):
        pitch = PitchSpec(grid_cell=grid_cell)
        rng = np.random.default_rng(31)
        frames = [
            random_frame(rng, n_attackers=5, n_defenders=5, speed=6.0),
            random_frame(rng, n_attackers=5, n_defenders=5, speed=0.0),
            # nobody else is eligible: every rest time is +inf and the band is empty
            make_frame([player("D1", DEFENDING, 12.0, -7.5, -2.0, 3.0)], ball_pos=(0.0, 0.0)),
            # exact ties on whole cell columns at 0.5 m (see exact_tie_columns)
            make_frame(
                [player("A1", ATTACKING, -2.75, 0.25), player("A2", ATTACKING, 2.25, 0.25)],
                ball_pos=(20.0, 0.0),
            ),
            # on a corner and beyond one: corner probes clamp to the corner,
            # and the clamp pulls the off-pitch player in by more than 1 m
            make_frame(
                [
                    player("A1", ATTACKING, 52.5, 34.0),
                    player("A2", ATTACKING, -53.0, -35.5, 1.0, 1.0),
                    player("B1", DEFENDING, 49.0, 31.0),
                    player("B2", DEFENDING, -50.0, -30.0, -1.0, 0.5),
                ],
                ball_pos=(60.0, 0.0),
            ),
            # drifting apart: at rt_3e15 the two predicted points sit 3e15 m
            # out on either side and their bisector crosses the pitch, so
            # without its rounding term the allowance misses band cells
            make_frame(
                [
                    player("A1", ATTACKING, -15.75, -4.8, -1.0, 0.3),
                    player("B1", DEFENDING, 5.3, 9.0, 1.0, 0.3),
                ],
                ball_pos=(60.0, 0.0),
            ),
        ]
        # A9 runs off the pitch behind a wall of defenders, who reach every
        # cell before any of its probes: nothing is in reach
        wall = make_frame(
            [player("A9", ATTACKING, 60.0, 0.0, 13.0, 0.0)]
            + [player(f"B{i:02d}", DEFENDING, 52.0, float(y)) for i, y in enumerate(range(-33, 34, 4))],
            ball_pos=(61.0, 0.0),
        )
        cases = [(frame, None) for frame in frames] + [(wall, ["A9", "B08"])]
        boxes = recorded_probe_boxes(monkeypatch)
        for frame, probed in cases:
            excluded = offside_positions(frame)
            candidates = probed or sorted(pid for pid in frame.ids if pid not in excluded)
            boxes.clear()
            table = batch_scores_with_deltas(frame, pitch, mp, W, candidates, excluded)
            assert_oracle_boxes(frame, pitch, excluded, candidates, boxes, mp)
            for pid in candidates:
                nd = directional_space_deltas(frame, pid, pitch, mp, W, excluded=excluded)
                assert table.entries[pid].deltas.tobytes() == nd.tobytes(), pid

    def test_no_passing_tile_wins_nothing(self, monkeypatch):
        # With every tile failing, each candidate's box is empty and each
        # probe's won sum is 0.0, so its deltas are 0.0 - score.
        real = dominance._probe_frame

        def no_tiles(*args):
            *rest, tiles = real(*args)
            return *rest, np.zeros_like(tiles)

        monkeypatch.setattr(dominance, "_probe_frame", no_tiles)
        boxes = recorded_probe_boxes(monkeypatch)
        frame = random_frame(np.random.default_rng(8), n_attackers=4, n_defenders=4, speed=6.0)
        excluded = offside_positions(frame)
        candidates = sorted(pid for pid in frame.ids if pid not in excluded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = batch_scores_with_deltas(frame, PITCH, MP, W, candidates, excluded)
        assert boxes == [np.s_[:0, :0]] * len(candidates)
        for pid in candidates:
            entry = table.entries[pid]
            assert entry.deltas.tobytes() == np.full(8, 0.0 - entry.score).tobytes()

    @pytest.mark.parametrize(
        "pitch",
        [PITCH, PitchSpec(length=2e150, width=2e150, grid_cell=1e148)],
        ids=["default_pitch", "max_pitch"],
    )
    def test_slowest_motion_at_max_coordinate_stays_finite(self, pitch):
        # Players on the coordinate bound drift a further MAX_COORDINATE at
        # 13 m/s over the longest reaction time: squared distances near
        # 1e301 m^2, every one finite, with warnings as errors.
        c = MAX_COORDINATE
        mp = MotionParams(reaction_time=c / MAX_TRACKED_SPEED, max_speed=1.0 / c)
        frame = make_frame(
            [
                player("A1", ATTACKING, -c, c, -13.0, 0.0),
                player("A2", ATTACKING, c, -c, 0.0, -13.0),
                player("B1", DEFENDING, c, c, 13.0, 0.0),
                player("B2", DEFENDING, -c, -c, 0.0, -13.0),
            ],
            ball_pos=(c, -c),
        )
        excluded = offside_positions(frame)
        candidates = sorted(pid for pid in frame.ids if pid not in excluded)
        assert candidates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = batch_scores_with_deltas(frame, pitch, mp, W, candidates, excluded)
            for pid in candidates:
                nd = directional_space_deltas(frame, pid, pitch, mp, W, excluded=excluded)
                assert np.isfinite(nd).all()
                assert table.entries[pid].deltas.tobytes() == nd.tobytes(), pid

    @pytest.mark.parametrize(
        "n, p_won",
        [(3123, 0.5), (485, 0.9), (200, 0.0), (1, 1.0), (1, 0.0)],
        ids=["random", "mostly_won", "all_false", "single_cell", "single_cell_lost"],
    )
    def test_won_sums_match_row_major_cumsum(self, rng, n, p_won):
        won = rng.uniform(size=(n, 8)) < p_won
        weight = rng.uniform(0.0, 1.0, n)
        # each probe's masked weights, summed in row-major cell order
        want = np.cumsum(np.where(won.T, weight, 0.0), axis=1)[:, -1]
        assert _won_sums(won, weight).tobytes() == want.tobytes()
        if n > 1000:
            # the order matters: the reversed order rounds differently
            reverse = np.cumsum(np.where(won.T, weight, 0.0)[:, ::-1], axis=1)[:, -1]
            assert reverse.tobytes() != want.tobytes()

    @pytest.mark.parametrize(
        "n", [0, 1, _SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1, 3 * _SUM_BLOCK + 5]
    )
    @pytest.mark.parametrize("case", ["random", "first_block_lost", "all_false"])
    def test_won_sums_match_python_sum_across_blocks(self, rng, n, case):
        # The won pairs are summed one block of _SUM_BLOCK cells at a time:
        # each probe's sum must still be the one left-to-right sum over all
        # cells, bit for bit, and float64 even when nothing is won.
        won = rng.uniform(size=(n, 8)) < 0.6
        if case == "first_block_lost":
            won[:_SUM_BLOCK] = False
        elif case == "all_false":
            won[:] = False
        weight = rng.uniform(0.0, 1.0, n)
        got = _won_sums(won, weight)
        assert got.dtype == np.float64
        assert got.tobytes() == oracle_won_sums(won, weight).tobytes()

    def test_probe_memory_scales_with_the_sum_block_not_the_box(self, monkeypatch):
        # A1 owns most of a 0.25 m grid, so all 8 probes win nearly every
        # cell of its box. The won pairs, 32 B each in the sums, are held one
        # block at a time, so the traced peak stays within 64 B per box cell
        # plus 1.5 MB. A first call fills the caches kept per pitch.
        pitch = PitchSpec(grid_cell=0.25)
        frame = make_frame(
            [
                player("A1", ATTACKING, 0.0, 0.0),
                player("A2", ATTACKING, -50.0, 32.0),
                player("B1", DEFENDING, 50.0, -32.0),
            ],
            ball_pos=(0.0, 0.0),
        )
        boxes = recorded_probe_boxes(monkeypatch)
        want = batch_scores_with_deltas(frame, pitch, MP, W, ["A1"]).entries["A1"].deltas
        (rows, cols), = boxes
        box_cells = len(range(*rows.indices(pitch.ny))) * len(range(*cols.indices(pitch.nx)))
        assert box_cells >= pitch.nx * pitch.ny / 2
        gc.collect()
        tracemalloc.start()
        try:
            table = batch_scores_with_deltas(frame, pitch, MP, W, ["A1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.entries["A1"].deltas.tobytes() == want.tobytes()
        assert peak <= 64 * box_cells + 1.5e6, (peak, box_cells)

    def test_boundary_clamping(self):
        # Player on the touchline: outward probes clamp to the boundary.
        frame = make_frame(
            [player("A1", ATTACKING, 0.0, 33.8), player("A2", ATTACKING, 0.0, -20.0)],
            ball_pos=(10.0, 0.0),
        )
        deltas = directional_space_deltas(frame, "A1", PITCH, MP, W)
        assert np.all(np.isfinite(deltas))


class TestOffside:
    def test_textbook_offside(self):
        frame = make_frame(
            [
                player("A1", ATTACKING, 40.0, 0.0),
                player("B1", DEFENDING, 45.0, 0.0),
                player("B2", DEFENDING, 30.0, 5.0),
            ],
            ball_pos=(20.0, 0.0),
        )
        assert offside_positions(frame) == {"A1"}

    def test_own_half_never_offside(self):
        frame = make_frame(
            [
                player("A1", ATTACKING, -5.0, 0.0),
                player("B1", DEFENDING, 45.0, 0.0),
                player("B2", DEFENDING, -30.0, 5.0),
            ],
            ball_pos=(20.0, 0.0),
        )
        assert offside_positions(frame) == frozenset()

    def test_level_with_second_last_defender_is_onside(self):
        frame = make_frame(
            [
                player("A1", ATTACKING, 30.0, 0.0),
                player("B1", DEFENDING, 45.0, 0.0),
                player("B2", DEFENDING, 30.0, 5.0),
            ],
            ball_pos=(20.0, 0.0),
        )
        assert offside_positions(frame) == frozenset()

    def test_fewer_than_two_defenders(self):
        frame = make_frame(
            [player("A1", ATTACKING, 10.0, 0.0), player("B1", DEFENDING, 40.0, 0.0)],
            ball_pos=(5.0, 0.0),
        )
        # Beyond halfway and the ball; defender condition vacuous.
        assert offside_positions(frame) == {"A1"}

    def test_behind_ball_is_onside(self):
        frame = make_frame(
            [
                player("A1", ATTACKING, 40.0, 0.0),
                player("B1", DEFENDING, 45.0, 0.0),
                player("B2", DEFENDING, 30.0, 5.0),
            ],
            ball_pos=(45.0, 0.0),
        )
        assert offside_positions(frame) == frozenset()

    def test_defenders_never_excluded(self, rng):
        for _ in range(20):
            frame = random_frame(rng)
            excluded = offside_positions(frame)
            defenders = {p.player_id for p in frame.players if p.team == DEFENDING}
            assert not (excluded & defenders)
