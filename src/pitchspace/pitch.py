"""Pitch coordinates, dimensions and grid, and the positional field weight.

Coordinate convention: origin at the pitch center, x along the goal-to-goal
axis, y along the halfway line. In a frame oriented by `features.orient_frame`
the attacking team plays toward +x, so the opponent goal center sits at
(length/2, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Point2:
    """A 2D point (or vector) in meters / meters-per-second."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")

    def __iter__(self):  # unpacks as the pair (x, y)
        return iter((self.x, self.y))


@dataclass(frozen=True)
class Ball:
    pos: Point2
    vel: Point2


# Largest area grid (nx * ny cells) a PitchSpec accepts. A dominance partition
# holds a few float64 grids of this size (32 MB each at the cap); a 0.05 m grid
# on a 105 x 68 pitch is 2.86 M cells.
MAX_GRID_CELLS = 4_000_000

# Largest |x| or |y|, in m, of a loaded position, of a pitch half-dimension,
# and of a player's drift over the reaction time at the tracked-speed cap. A
# predicted point and a cell centre then differ by less than 4e150 m on each
# axis, so no squared distance between them overflows.
MAX_COORDINATE = 1e150

MAX_TRACKED_SPEED = 13.0  # m/s: the loader caps every player velocity to this speed


@dataclass(frozen=True)
class PitchSpec:
    """Pitch dimensions and the grid resolution used for area computations."""

    length: float = 105.0
    width: float = 68.0
    grid_cell: float = 0.5

    def __post_init__(self) -> None:
        if not (0 < self.length <= 2 * MAX_COORDINATE and 0 < self.width <= 2 * MAX_COORDINATE):
            raise ValueError(
                f"pitch dimensions must be in (0, {2 * MAX_COORDINATE:g}] m, "
                f"got {self.length}x{self.width}"
            )
        if not 0 < self.grid_cell <= min(self.length, self.width) / 10:
            raise ValueError(
                f"grid_cell must be in (0, {min(self.length, self.width) / 10}], got {self.grid_cell}"
            )
        # the first test keeps nx/ny's ceil() away from an infinite quotient
        if (
            max(self.length, self.width) / self.grid_cell > MAX_GRID_CELLS
            or self.nx * self.ny > MAX_GRID_CELLS
        ):
            raise ValueError(
                f"a {self.length}x{self.width} pitch at grid_cell {self.grid_cell} exceeds "
                f"{MAX_GRID_CELLS} grid cells"
            )

    @property
    def half_length(self) -> float:
        return self.length / 2.0

    @property
    def half_width(self) -> float:
        return self.width / 2.0

    @property
    def nx(self) -> int:
        return math.ceil(self.length / self.grid_cell)

    @property
    def ny(self) -> int:
        return math.ceil(self.width / self.grid_cell)

    @property
    def goal_center(self) -> Point2:
        """Center of the goal the attacking team plays toward (+x)."""
        return Point2(self.half_length, 0.0)

    @lru_cache(maxsize=32)
    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid cell center coordinates: (xs of shape (nx,), ys of shape (ny,)).

        Built once per pitch and read-only, like weight_prefix.
        """
        xs = -self.half_length + (np.arange(self.nx) + 0.5) * self.grid_cell
        ys = -self.half_width + (np.arange(self.ny) + 0.5) * self.grid_cell
        xs.setflags(write=False)
        ys.setflags(write=False)
        return xs, ys


@dataclass(frozen=True)
class WeightParams:
    """Shape of the positional field weight; beta controls the lateral falloff."""

    beta: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


def weight_grid(pitch: PitchSpec, w: WeightParams, attacking_right: bool = True) -> np.ndarray:
    """Positional weight in [0, 1] at every grid cell center, shape (ny, nx):
    grows toward the opponent goal and the lateral center.

    Separable bilinear form x_norm * (1 - beta * y_norm). For a team attacking
    left the x term is mirrored (1 - x_norm), matching the defending-team
    weight used for their space scores. Cell centers that overhang the pitch
    rectangle (non-divisible dimensions) are clamped to the boundary. Each
    weight is rounded to the nearest multiple of 2**-q, q = 53 - ceil(log2(nx *
    ny)), so a sum over any cells counts at most 2**53 units of 2**-q: every
    partial sum is exact, and the sum is the same float in any order.
    """
    xs, ys = pitch.cell_centers()
    xs = np.clip(xs, -pitch.half_length, pitch.half_length)
    ys = np.clip(ys, -pitch.half_width, pitch.half_width)
    x_norm = (xs + pitch.half_length) / pitch.length
    if not attacking_right:
        x_norm = 1.0 - x_norm
    y_norm = np.abs(ys) / pitch.half_width
    grid = x_norm[np.newaxis, :] * (1.0 - w.beta * y_norm)[:, np.newaxis]
    q = 53 - (pitch.nx * pitch.ny - 1).bit_length()
    return np.ldexp(np.rint(np.ldexp(grid, q)), -q)


@lru_cache(maxsize=32)
def weight_prefix(
    pitch: PitchSpec, w: WeightParams, attacking_right: bool = True
) -> np.ndarray:
    """Prefix sums of weight_grid in row-major cell order, read-only, shape
    (nx * ny + 1,): entry k is the sum of the weights of the first k cells,
    so the cells of flat indices a to b - 1 weigh prefix[b] - prefix[a]. Every
    entry is a partial sum on weight_grid's lattice, so it is exact, and so is
    every difference of two entries: a cell's weight is the difference of two
    adjacent ones. One table per side is built once, in place of the grids.
    """
    prefix = np.concatenate(([0.0], np.cumsum(weight_grid(pitch, w, attacking_right))))
    prefix.setflags(write=False)
    return prefix


def goal_distance_angle(p, pitch: PitchSpec) -> tuple[float, float]:
    """Distance and absolute angle (radians, in [0, pi]) from (x, y) to the opponent goal center.

    Assumes attack normalized to +x. A point exactly at the goal center has
    distance 0 and angle 0.
    """
    x, y = p
    goal = pitch.goal_center
    dx = goal.x - x
    dy = goal.y - y
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        return 0.0, 0.0
    return dist, math.atan2(abs(dy), dx)

