"""Pitch coordinates, attack-direction normalization, and the positional field weight.

Coordinate convention: origin at the pitch center, x along the goal-to-goal
axis, y along the halfway line. After normalization the attacking team plays
toward +x, so the opponent goal center sits at (length/2, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .match_io import TrackedFrame


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

        Built once per pitch and read-only, like weight_grid.
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


@lru_cache(maxsize=32)
def weight_grid(pitch: PitchSpec, w: WeightParams, attacking_right: bool = True) -> np.ndarray:
    """Positional weight in [0, 1] at every grid cell center, shape (ny, nx):
    grows toward the opponent goal and the lateral center.

    Separable bilinear form x_norm * (1 - beta * y_norm). For a team attacking
    left the x term is mirrored (1 - x_norm), matching the defending-team
    weight used for their space scores. Cell centers that overhang the pitch
    rectangle (non-divisible dimensions) are clamped to the boundary.
    """
    xs, ys = pitch.cell_centers()
    xs = np.clip(xs, -pitch.half_length, pitch.half_length)
    ys = np.clip(ys, -pitch.half_width, pitch.half_width)
    x_norm = (xs + pitch.half_length) / pitch.length
    if not attacking_right:
        x_norm = 1.0 - x_norm
    y_norm = np.abs(ys) / pitch.half_width
    grid = x_norm[np.newaxis, :] * (1.0 - w.beta * y_norm)[:, np.newaxis]
    grid.setflags(write=False)
    return grid


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


def normalize_attack_direction(
    frame: "TrackedFrame", attacking_team_attacks_right: bool
) -> "TrackedFrame":
    """Return the frame with the attack aligned toward +x.

    If the attacking team already attacks right, the frame is returned
    unchanged. Otherwise the x columns of `xy` and `vxy` and the ball's x
    components are negated; y is untouched and team labels are preserved.
    Positions beyond the pitch bounds are mirrored like any other.
    """
    if attacking_team_attacks_right:
        return frame
    pos, vel = frame.ball.pos, frame.ball.vel
    return frame.with_players(
        xy=frame.xy * (-1.0, 1.0),
        vxy=frame.vxy * (-1.0, 1.0),
        ball=Ball(Point2(-pos.x, pos.y), Point2(-vel.x, vel.y)),
    )
