import math

import numpy as np
import pytest

from pitchspace.pitch import (
    MAX_GRID_CELLS,
    PitchSpec,
    Point2,
    WeightParams,
    goal_distance_angle,
    weight_grid,
    weight_prefix,
)

PITCH = PitchSpec()
W = WeightParams()


def lattice_exponent(pitch):
    """q = 53 - ceil(log2(nx * ny)): the weights are multiples of 2**-q."""
    return 53 - math.ceil(math.log2(pitch.nx * pitch.ny))


def field_weight(p, pitch, w, attacking_right=True):
    """Scalar oracle of weight_grid: the weight x_norm * (1 - beta * y_norm)
    at one point of the pitch rectangle, x mirrored for a team attacking left,
    rounded to the nearest multiple of 2**-q (half to even)."""
    if not (abs(p.x) <= pitch.half_length and abs(p.y) <= pitch.half_width):
        raise ValueError(f"point ({p.x}, {p.y}) outside {pitch.length}x{pitch.width} pitch")
    x_norm = (p.x + pitch.half_length) / pitch.length
    if not attacking_right:
        x_norm = 1.0 - x_norm
    y_norm = abs(p.y) / pitch.half_width
    q = lattice_exponent(pitch)
    return math.ldexp(round(math.ldexp(x_norm * (1.0 - w.beta * y_norm), q)), -q)


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
            {"length": 2e150, "grid_cell": 1e-300},  # the same within MAX_COORDINATE
            # 1000 x 1000 cells, but squared distances would overflow
            {"length": 1e200, "width": 1e200, "grid_cell": 1e197},
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

    @pytest.mark.parametrize("attacking_right", [True, False])
    @pytest.mark.parametrize("grid_cell", [0.5, 4.0, 6.0])
    def test_weight_grid_matches_scalar_oracle(self, grid_cell, attacking_right):
        # The last cell centre overhangs the pitch on x at 4.0 m (53.5 m) and
        # on y at 6.0 m (35 m); those centres are clamped to the boundary.
        pitch = PitchSpec(grid_cell=grid_cell)
        w = WeightParams(beta=0.3)
        grid = weight_grid(pitch, w, attacking_right)
        xs, ys = pitch.cell_centers()
        want = [
            [
                field_weight(
                    Point2(min(x, pitch.half_length), min(y, pitch.half_width)), pitch, w,
                    attacking_right,
                )
                for x in xs.tolist()
            ]
            for y in ys.tolist()
        ]
        assert grid.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("attacking_right", [True, False])
    @pytest.mark.parametrize("grid_cell", [0.5, 0.1, 4.0, 6.0])
    def test_weights_lie_on_a_lattice_where_every_sum_is_exact(self, grid_cell, attacking_right):
        # Every weight is m * 2**-q with 0 <= m <= 2**q, so a sum over the
        # grid's nx * ny cells counts at most 2**53 units of 2**-q: exact.
        pitch = PitchSpec(grid_cell=grid_cell)
        q = lattice_exponent(pitch)
        assert pitch.nx * pitch.ny * 2**q <= 2**53
        units = np.ldexp(weight_grid(pitch, W, attacking_right), q)
        assert np.array_equal(units, np.rint(units))
        assert units.min() >= 0 and units.max() <= 2**q

    def test_lattice_exponent_at_the_default_and_the_largest_grid(self):
        largest = PitchSpec(length=2000.0, width=2000.0, grid_cell=1.0)
        assert largest.nx * largest.ny == MAX_GRID_CELLS
        assert (lattice_exponent(PITCH), lattice_exponent(largest)) == (38, 31)

    @pytest.mark.parametrize("attacking_right", [True, False])
    @pytest.mark.parametrize("grid_cell", [0.5, 0.75, 4.0])
    def test_prefix_sums_difference_back_to_the_weights(self, grid_cell, attacking_right):
        # Each entry is an exact partial sum in row-major order, so adjacent
        # entries differ by exactly one cell's weight, and the last is the fsum.
        pitch = PitchSpec(grid_cell=grid_cell)
        prefix = weight_prefix(pitch, W, attacking_right)
        assert prefix.shape == (pitch.nx * pitch.ny + 1,) and not prefix.flags.writeable
        assert weight_prefix(pitch, W, attacking_right) is prefix  # one table per side
        grid = weight_grid(pitch, W, attacking_right)
        assert prefix[0] == 0.0
        assert np.diff(prefix).tobytes() == grid.tobytes()
        assert prefix[-1] == math.fsum(grid.ravel().tolist())

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

