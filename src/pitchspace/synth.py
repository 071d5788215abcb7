"""Deterministic synthetic match generation for desk-scale testing.

A synthetic match is a kickoff trace (ball at rest, then a velocity impulse
at a known frame) followed by one standalone frame per pass event. Pass
outcomes are Bernoulli draws from a configurable logistic rule over the
intended receiver's true off-ball geometry, and the hidden probabilities are
returned as ground truth so model recovery can be checked end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dominance import MotionParams, offside_line
from .features import receiver_variables
from .match_io import Ball, FrameMetadata, MatchEvent, TrackedFrame
from .pitch import PitchSpec, Point2

RULE_FEATURES = ("dist_ball", "time_to_player", "time_to_passline")
_TIME_FEATURES = ("time_to_player", "time_to_passline")

BALL_KICK_SPEED = 8.0  # m/s, kickoff impulse
PASS_BALL_SPEED = 10.0  # m/s, ball velocity at pass release
EVENT_FRAME_GAP = 10  # frames between consecutive pass snapshots
KICKOFF_STANDOFF = 51  # keeps pass snapshots out of any kickoff search window


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic generator."""

    attackers: int = 10
    defenders: int = 10
    passes: int = 200
    noise: float = 0.0  # stddev of emitted position jitter, meters
    rule_intercept: float = 2.0
    rule_coeffs: dict = dc_field(default_factory=lambda: {"dist_ball": -0.2})
    empty_defense_rate: float = 0.05  # fraction of events with no defenders on pitch
    opponent_pass_rate: float = 0.0  # fraction of passes played by the left-attacking team
    kickoff_frames: int = 120
    frame_rate: float = 10.0
    frame_offset: int = 0  # event-clock misalignment, for sync testing

    def __post_init__(self) -> None:
        if not 2 <= self.attackers <= 11:
            raise ValueError(f"attackers must be in [2, 11], got {self.attackers}")
        if not 0 <= self.defenders <= 11:
            raise ValueError(f"defenders must be in [0, 11], got {self.defenders}")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if self.kickoff_frames < 12:
            raise ValueError("kickoff_frames must be >= 12")
        if not 0 < self.frame_rate < math.inf:
            raise ValueError(f"frame_rate must be finite and > 0, got {self.frame_rate}")
        if not 0 <= self.empty_defense_rate <= 1 or not 0 <= self.opponent_pass_rate <= 1:
            raise ValueError("rates must be in [0, 1]")
        unknown = set(self.rule_coeffs) - set(RULE_FEATURES)
        if unknown:
            raise ValueError(f"rule references unsupported features {sorted(unknown)}")
        uses_times = any(f in self.rule_coeffs for f in _TIME_FEATURES)
        if uses_times and (self.defenders == 0 or self.empty_defense_rate > 0):
            raise ValueError(
                "rule uses interception times but the defense can be empty; "
                "set defenders >= 1 and empty_defense_rate = 0"
            )


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def synthesize_match(
    config: SynthConfig, seed: int, mp: MotionParams | None = None
) -> tuple[list[TrackedFrame], list[MatchEvent], dict]:
    """Generate (frames, events, ground_truth), byte-reproducible for a fixed seed.

    Team A attacks +x, team B attacks -x; every frame carries an
    "attacks_right": "A" marker. Ground truth maps each pass event id to its
    hidden success probability and records the kickoff impulse frame and the
    raw rule inputs.
    """
    if mp is None:
        mp = MotionParams()
    pitch = PitchSpec()
    rng = np.random.default_rng(seed)
    dt = 1.0 / config.frame_rate

    frames: list[TrackedFrame] = []
    events: list[MatchEvent] = []

    # Roster sizes: each team must field its attacking XI when in possession
    # and its defending XI otherwise.
    roster_a = max(config.attackers, config.defenders if config.opponent_pass_rate > 0 else 0)
    roster_b = max(config.defenders, config.attackers if config.opponent_pass_rate > 0 else 0)
    a_ids = [f"A{i + 1:02d}" for i in range(roster_a)]
    b_ids = [f"B{i + 1:02d}" for i in range(roster_b)]

    # --- kickoff trace: everyone parked, ball kicked at the impulse frame ---
    impulse = config.kickoff_frames // 2
    kick_vel = Point2(BALL_KICK_SPEED * 0.8, BALL_KICK_SPEED * 0.3)
    roster = tuple(a_ids + b_ids)
    roster_teams = np.array(["A"] * roster_a + ["B"] * roster_b, dtype=object)
    formation = np.array(
        [(-10.0 - 5.0 * (i // 4), -15.0 + 10.0 * (i % 4)) for i in range(roster_a)]
        + [(10.0 + 5.0 * (i // 4), -15.0 + 10.0 * (i % 4)) for i in range(roster_b)]
    )
    parked = np.zeros_like(formation)
    for fi in range(config.kickoff_frames):
        if fi <= impulse:
            ball = Ball(Point2(0.0, 0.0), Point2(0.0, 0.0))
        else:
            elapsed = (fi - impulse) * dt
            ball = Ball(
                Point2(kick_vel.x * elapsed, kick_vel.y * elapsed), kick_vel
            )
        frames.append(
            TrackedFrame(
                frame_index=fi,
                time=fi * dt,
                ball=ball,
                ids=roster,
                teams=roster_teams,
                xy=formation,
                vxy=parked,
                metadata=FrameMetadata(attacking_team_id="A", attacks_right_team="A"),
            )
        )
    events.append(
        MatchEvent(
            event_id="E0000",
            type="kickoff",
            frame=impulse - 4 + config.frame_offset,
            team="A",
            player=a_ids[0],
            pos=Point2(0.0, 0.0),
        )
    )

    probabilities: dict[str, float] = {}
    rule_features: dict[str, dict[str, float]] = {}

    for i in range(config.passes):
        frame_index = config.kickoff_frames + KICKOFF_STANDOFF + i * EVENT_FRAME_GAP
        by_b = bool(rng.random() < config.opponent_pass_rate)
        no_defense = bool(rng.random() < config.empty_defense_rate)
        att_ids = (b_ids if by_b else a_ids)[: config.attackers]
        def_ids = (a_ids if by_b else b_ids)[: config.defenders]
        if no_defense:
            def_ids = []

        # Sample the layout in the attacking (+x) frame; resample while the
        # intended receiver sits offside there.
        for _ in range(200):
            att = np.column_stack(
                [
                    rng.uniform(-pitch.half_length + 2, pitch.half_length - 2, len(att_ids)),
                    rng.uniform(-pitch.half_width + 2, pitch.half_width - 2, len(att_ids)),
                ]
            )
            dfn = np.column_stack(
                [
                    rng.uniform(-pitch.half_length + 2, pitch.half_length - 2, len(def_ids)),
                    rng.uniform(-pitch.half_width + 2, pitch.half_width - 2, len(def_ids)),
                ]
            )
            att_vel = rng.uniform(-3.5, 3.5, (len(att_ids), 2))
            def_vel = rng.uniform(-3.5, 3.5, (len(def_ids), 2))
            passer = int(rng.integers(len(att_ids)))
            ball_xy = att[passer].copy()
            others = [j for j in range(len(att_ids)) if j != passer]
            dists = [float(np.hypot(*(att[j] - ball_xy))) for j in others]
            receiver = others[int(np.argmin(dists))]
            if att[receiver, 0] <= offside_line(dfn[:, 0].tolist(), ball_xy[0]):
                break
        else:
            raise RuntimeError("could not sample an onside receiver; config too constrained")

        # The values extraction gives the receiver in this (+x) layout.
        defenders = list(zip(dfn.tolist(), def_vel.tolist()))
        values = receiver_variables(att[receiver].tolist(), ball_xy.tolist(), defenders, mp)
        feats = dict(zip(RULE_FEATURES, values))
        z = config.rule_intercept + sum(c * feats[k] for k, c in config.rule_coeffs.items())
        p_true = _sigmoid(z)
        success = bool(rng.random() < p_true)

        # Emit in true pitch coordinates: mirror x when team B attacks. The
        # players' rows and then the ball's take the jitter rows in turn.
        flip = np.array([-1.0 if by_b else 1.0, 1.0])
        jitter = rng.normal(0.0, config.noise, (len(att_ids) + len(def_ids) + 1, 2)) if config.noise > 0 else None
        xy = np.vstack([att, dfn]) * flip
        ball_at = ball_xy * flip
        if jitter is not None:
            xy += jitter[:-1]
            ball_at += jitter[-1]
        ball_dir = att[receiver] - ball_xy
        ball_dir = ball_dir / max(float(np.hypot(*ball_dir)), 1e-9)
        ball_pos = Point2(*ball_at.tolist())
        ball_vel = Point2(*(PASS_BALL_SPEED * ball_dir * flip).tolist())
        attacking, defending = ("B", "A") if by_b else ("A", "B")
        teams = np.array([attacking] * len(att_ids) + [defending] * len(def_ids), dtype=object)
        frames.append(
            TrackedFrame(
                frame_index=frame_index,
                time=frame_index * dt,
                ball=Ball(ball_pos, ball_vel),
                ids=tuple(att_ids + def_ids),
                teams=teams,
                xy=xy,
                vxy=np.vstack([att_vel, def_vel]) * flip,
                metadata=FrameMetadata(
                    attacking_team_id=attacking, attacks_right_team="A"
                ),
            )
        )
        event_id = f"E{i + 1:04d}"
        events.append(
            MatchEvent(
                event_id=event_id,
                type="pass",
                frame=frame_index + config.frame_offset,
                team=attacking,
                player=att_ids[passer],
                pos=ball_pos,
                receiver=att_ids[receiver],
                outcome="success" if success else "failure",
            )
        )
        probabilities[event_id] = p_true
        rule_features[event_id] = feats

    ground_truth = {
        "seed": seed,
        "kickoff_impulse_frame": impulse,
        "rule": {"intercept": config.rule_intercept, "coeffs": dict(config.rule_coeffs)},
        "events": probabilities,
        "rule_features": rule_features,
    }
    return frames, events, ground_truth
