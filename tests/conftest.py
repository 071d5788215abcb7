import numpy as np
import pytest

from pitchspace.dominance import ATTACKING, DEFENDING, PlayerState
from pitchspace.match_io import Ball, FrameMetadata, TrackedFrame
from pitchspace.pitch import Point2


def frame_of(players, ball, frame_index=0, time=0.0, metadata=None):
    """An array frame whose rows are the given PlayerState records, in order."""
    players = list(players)
    return TrackedFrame(
        frame_index=frame_index,
        time=time,
        ball=ball,
        ids=tuple(p.player_id for p in players),
        teams=np.array([p.team for p in players], dtype=object),
        xy=np.array([(p.pos.x, p.pos.y) for p in players], dtype=np.float64).reshape(-1, 2),
        vxy=np.array([(p.vel.x, p.vel.y) for p in players], dtype=np.float64).reshape(-1, 2),
        metadata=FrameMetadata() if metadata is None else metadata,
        extras={p.player_id: p.extra for p in players if p.extra},
    )


def make_frame(players, ball_pos=(0.0, 0.0), ball_vel=(0.0, 0.0), frame_index=0, time=0.0):
    return frame_of(players, Ball(Point2(*ball_pos), Point2(*ball_vel)), frame_index, time)


def with_players(frame, players):
    """The frame with its player table rebuilt from PlayerState records."""
    return frame_of(players, frame.ball, frame.frame_index, frame.time, frame.metadata)


def find_player(frame, player_id):
    """The frame's PlayerState for the id, or None."""
    return next((p for p in frame.players if p.player_id == player_id), None)


def player(pid, team, x, y, vx=0.0, vy=0.0):
    return PlayerState(pid, team, Point2(x, y), Point2(vx, vy))


def random_frame(rng, n_attackers=11, n_defenders=11, speed=3.0, ball_pos=(40.0, 0.0)):
    """Players scattered over the pitch with bounded random velocities."""
    players = []
    for i in range(n_attackers):
        players.append(
            player(
                f"A{i:02d}", ATTACKING,
                rng.uniform(-50, 50), rng.uniform(-31, 31),
                rng.uniform(-speed, speed), rng.uniform(-speed, speed),
            )
        )
    for i in range(n_defenders):
        players.append(
            player(
                f"B{i:02d}", DEFENDING,
                rng.uniform(-50, 50), rng.uniform(-31, 31),
                rng.uniform(-speed, speed), rng.uniform(-speed, speed),
            )
        )
    return make_frame(players, ball_pos=ball_pos)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
