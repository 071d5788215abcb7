import math

import numpy as np
import pytest

from pitchspace.dominance import ATTACKING, DEFENDING
from pitchspace.pitch import (
    MAX_GRID_CELLS,
    PitchSpec,
    Point2,
    WeightParams,
    field_weight,
    goal_distance_angle,
    normalize_attack_direction,
    weight_grid,
)

from conftest import make_frame, player

PITCH = PitchSpec()
W = WeightParams()


class TestTypes:
    def test_pitch_defaults(self):
        assert PITCH.length == 105 and PITCH.width == 68 and PITCH.grid_cell == 0.5
        assert PITCH.nx == 210 and PITCH.ny == 136

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"length": 0.0},
            {"width": -5.0},
            {"grid_cell": 0.0},
            {"grid_cell": 7.0},  # > min(length, width)/10
            {"grid_cell": 0.0001},  # 7.1e11 cells
            {"length": 1e9},
            {"length": math.inf},
            {"width": math.nan},
            {"length": 1e300, "grid_cell": 1e-300},  # length / grid_cell overflows to inf
        ],
    )
    def test_pitch_invariants(self, kwargs):
        with pytest.raises(ValueError):
            PitchSpec(**kwargs)

    def test_grid_cell_cap_admits_fine_grids(self):
        fine = PitchSpec(grid_cell=0.05)
        assert fine.nx * fine.ny == 2_856_000 <= MAX_GRID_CELLS

    def test_cell_centers_built_once_and_read_only(self):
        xs, ys = PITCH.cell_centers()
        again = PitchSpec().cell_centers()  # an equal pitch shares the arrays
        assert again[0] is xs and again[1] is ys
        assert xs[0] == -52.25 and ys[-1] == 33.75
        for a in (xs, ys):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_point_finite(self):
        with pytest.raises(ValueError):
            Point2(math.nan, 0.0)
        with pytest.raises(ValueError):
            Point2(0.0, math.inf)

    @pytest.mark.parametrize("beta", [-0.1, 1.5])
    def test_weight_params_range(self, beta):
        with pytest.raises(ValueError):
            WeightParams(beta=beta)


class TestFieldWeight:
    def test_opponent_goal_center(self):
        assert field_weight(Point2(52.5, 0.0), PITCH, W) == 1.0

    def test_own_goal_center(self):
        assert field_weight(Point2(-52.5, 0.0), PITCH, W) == 0.0

    def test_center_spot(self):
        assert field_weight(Point2(0.0, 0.0), PITCH, W) == pytest.approx(0.5)

    def test_touchline_midpoint(self):
        assert field_weight(Point2(0.0, 34.0), PITCH, W) == pytest.approx(0.25)

    def test_outside_pitch_is_domain_error(self):
        with pytest.raises(ValueError):
            field_weight(Point2(60.0, 0.0), PITCH, W)

    def test_monotone_in_x_and_abs_y_on_full_grid(self):
        grid = weight_grid(PITCH, W, attacking_right=True)
        assert np.all(np.diff(grid, axis=1) >= 0)  # nondecreasing toward +x
        ny = grid.shape[0]
        lower, upper = grid[: ny // 2], grid[ny // 2 :]
        assert np.all(np.diff(lower, axis=0) >= 0)  # |y| decreasing -> weight up
        assert np.all(np.diff(upper, axis=0) <= 0)

    def test_left_right_inversion_symmetry(self, rng):
        for _ in range(200):
            p = Point2(rng.uniform(-52.5, 52.5), rng.uniform(-34, 34))
            mirrored = Point2(-p.x, p.y)
            assert field_weight(p, PITCH, W, attacking_right=True) == pytest.approx(
                field_weight(mirrored, PITCH, W, attacking_right=False), abs=1e-12
            )

    def test_defending_weight_is_mirrored_attacking_weight(self):
        att = weight_grid(PITCH, W, attacking_right=True)
        dfn = weight_grid(PITCH, W, attacking_right=False)
        assert np.allclose(att, dfn[:, ::-1], atol=1e-12)


class TestGoalDistanceAngle:
    def test_penalty_spot(self):
        dist, angle = goal_distance_angle(Point2(41.5, 0.0), PITCH)
        assert dist == pytest.approx(11.0)
        assert angle == 0.0

    def test_perpendicular(self):
        dist, angle = goal_distance_angle(Point2(52.5, 34.0), PITCH)
        assert dist == pytest.approx(34.0)
        assert angle == pytest.approx(math.pi / 2)

    def test_45_degrees(self):
        dist, angle = goal_distance_angle(Point2(42.5, 10.0), PITCH)
        assert dist == pytest.approx(math.sqrt(200.0))
        assert angle == pytest.approx(math.pi / 4)

    def test_at_goal_center(self):
        assert goal_distance_angle(Point2(52.5, 0.0), PITCH) == (0.0, 0.0)

    def test_distance_zero_iff_goal_center(self, rng):
        for _ in range(100):
            p = Point2(rng.uniform(-52.5, 52.5), rng.uniform(-34, 34))
            dist, _ = goal_distance_angle(p, PITCH)
            assert (dist == 0.0) == (p.x == 52.5 and p.y == 0.0)

    def test_angle_in_0_pi(self, rng):
        for _ in range(100):
            p = Point2(rng.uniform(-52.5, 52.5), rng.uniform(-34, 34))
            _, angle = goal_distance_angle(p, PITCH)
            assert 0.0 <= angle <= math.pi


class TestNormalizeAttackDirection:
    def test_attacking_right_is_identity(self):
        frame = make_frame([player("A1", ATTACKING, 10.0, -3.0)])
        assert normalize_attack_direction(frame, True) is frame

    def test_attacking_left_mirrors_x(self):
        frame = make_frame(
            [player("A1", ATTACKING, 10.0, -3.0, vx=2.0, vy=1.0)], ball_pos=(5.0, 2.0),
            ball_vel=(1.0, -1.0),
        )
        out = normalize_attack_direction(frame, False)
        p = out.players[0]
        assert (p.pos.x, p.pos.y) == (-10.0, -3.0)
        assert (p.vel.x, p.vel.y) == (-2.0, 1.0)
        assert (out.ball.pos.x, out.ball.pos.y) == (-5.0, 2.0)
        assert (out.ball.vel.x, out.ball.vel.y) == (-1.0, -1.0)
        assert p.team == ATTACKING

    def test_involution(self, rng):
        frame = make_frame(
            [
                player("A1", ATTACKING, 10.0, -3.0, vx=2.0, vy=1.0),
                player("B1", DEFENDING, -7.5, 4.0, vx=-1.0, vy=0.5),
                player("B2", DEFENDING, 60.0, 40.0),  # off the pitch
            ]
        )
        twice = normalize_attack_direction(normalize_attack_direction(frame, False), False)
        assert twice == frame

    def test_out_of_bounds_positions_pass_through_mirrored(self):
        frame = make_frame([player("A1", ATTACKING, 60.0, 0.0)])
        out = normalize_attack_direction(frame, False)
        assert out.players[0].pos.x == -60.0

    def test_preserves_inter_player_distances(self, rng):
        players = [
            player(f"P{i}", ATTACKING, rng.uniform(-50, 50), rng.uniform(-30, 30))
            for i in range(8)
        ]
        frame = make_frame(players)
        out = normalize_attack_direction(frame, False)
        for i in range(8):
            for j in range(i + 1, 8):
                d0 = frame.players[i].pos.dist(frame.players[j].pos)
                d1 = out.players[i].pos.dist(out.players[j].pos)
                assert d0 == d1
