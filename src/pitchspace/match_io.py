"""Generic tracking/event file ingestion, kickoff synchronization, and attack sequences.

File formats (one JSON object per line, UTF-8):

tracking: {"frame": int, "time": s, "ball": {"x","y","vx","vy"},
           "players": [{"id","team","x","y","vx","vy"}, ...]}
          Optional keys: "period", "attacks_right" (team id attacking +x).
events:   {"event_id", "type", "frame", "team", "player", "x", "y"}
          Optional keys: "receiver", "outcome" ("success"/"failure", passes only).

Ids, team ids, "type" and "outcome" are JSON strings or integers (read as
decimal text). Coordinates are meters with the origin at the pitch center,
+x toward the right goal before normalization. Unknown keys are preserved
and ignored. A frame holds its players as one array table (see TrackedFrame).
"""

from __future__ import annotations

import json
import logging
import math
import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .dominance import MAX_TRACKED_SPEED, PlayerState
from .pitch import MAX_COORDINATE, Ball, Point2

logger = logging.getLogger(__name__)

KICKOFF_WINDOW = 50  # frames searched on each side of the kickoff hint
KICKOFF_BACKOFF = 4  # kickoff is this many frames before the acceleration peak
MIN_SEQUENCE_SECONDS = 1.0  # spans shorter than this are degenerate and dropped

SET_PLAY_TYPES = frozenset(
    {"kickoff", "throw_in", "free_kick", "corner", "goal_kick", "penalty"}
)

_TRACKING_KEYS = {"frame", "time", "ball", "players", "period", "attacks_right", "attacking_team"}
_PLAYER_KEYS = {"id", "team", "x", "y", "vx", "vy"}
_EVENT_KEYS = {"event_id", "type", "frame", "team", "player", "receiver", "outcome", "x", "y"}
_XML_CHARS = re.compile("[\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]*")  # XML 1.0 Char


class SchemaError(ValueError):
    """Hard validation failure in a data file, located by its path and, where
    there is one, a 1-based line number."""

    def __init__(self, message: str, path: str | Path | None = None, line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        if path is None:
            where = ""
        elif line is None:
            where = f"{self.path}: "
        else:
            where = f"{self.path}:{line}: "
        super().__init__(f"{where}{message}")


@dataclass(frozen=True)
class FrameMetadata:
    period: int = 1
    attacking_team_id: str | None = None  # team in possession, when known
    attacks_right_team: str | None = None  # team playing toward +x, when known
    warnings: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False, slots=True)
class TrackedFrame:
    """One synchronized snapshot: the ball, and the players as one array table.

    Row i is player ids[i], in file order: teams[i] is its team id (its role
    once oriented), xy[i] its position and vxy[i] its velocity; the arrays are
    read-only. `extras` maps the id of each player whose record had unknown
    keys to them. The library reads only this table; `players` is a view.
    """

    frame_index: int
    time: float
    ball: Ball
    ids: tuple[str, ...]
    teams: np.ndarray  # (P,) object array of str
    xy: np.ndarray  # (P, 2) float64
    vxy: np.ndarray  # (P, 2) float64
    metadata: FrameMetadata = field(default_factory=FrameMetadata)
    extras: dict[str, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.ids)
        if self.teams.shape != (n,) or self.xy.shape != (n, 2) or self.vxy.shape != (n, 2):
            raise ValueError(f"frame {self.frame_index}: player columns disagree on {n} players")
        for column in (self.teams, self.xy, self.vxy):
            column.setflags(write=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrackedFrame):
            return NotImplemented
        plain = ("frame_index", "time", "ball", "ids", "metadata", "extras")
        return all(getattr(self, k) == getattr(other, k) for k in plain) and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in ("teams", "xy", "vxy")
        )

    def with_players(self, teams=None, xy=None, vxy=None, ball=None) -> "TrackedFrame":
        """This frame with the given player columns, or ball, in place of its own."""
        return TrackedFrame(
            self.frame_index, self.time, self.ball if ball is None else ball, self.ids,
            self.teams if teams is None else teams, self.xy if xy is None else xy,
            self.vxy if vxy is None else vxy, self.metadata, self.extras,
        )

    @property
    def players(self) -> tuple[PlayerState, ...]:
        """The table as PlayerState records, built on each access."""
        columns = zip(self.ids, self.teams.tolist(), self.xy.tolist(), self.vxy.tolist())
        return tuple(
            PlayerState(pid, team, Point2(x, y), Point2(vx, vy), self.extras.get(pid, {}))
            for pid, team, (x, y), (vx, vy) in columns
        )


@dataclass(frozen=True)
class MatchEvent:
    """One annotated on-ball action."""

    event_id: str
    type: str
    frame: int
    team: str
    player: str
    pos: Point2
    receiver: str | None = None
    outcome: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def label(self) -> int:
        """A pass's model label: 1 for a success, else 0."""
        return 1 if self.outcome == "success" else 0


@dataclass(frozen=True)
class AttackSequence:
    """Contiguous possession span for one team."""

    sequence_id: str
    team_id: str
    start_frame: int
    end_frame: int
    event_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.start_frame > self.end_frame:
            raise ValueError(f"sequence {self.sequence_id}: start > end")


@dataclass(frozen=True)
class DroppedEvents:
    """Events excluded from every sequence, with the reason."""

    event_ids: tuple[str, ...]
    reason: str


# ---------------------------------------------------------------------------
# Loading / saving
# ---------------------------------------------------------------------------


def _req(record: dict, key: str, path, line: int):
    if key not in record:
        raise SchemaError(f"missing required key {key!r}", path, line)
    return record[key]


def _num(value, key: str, path, line: int) -> float:
    if type(value) in (int, float):  # a bool is neither type
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise SchemaError(f"key {key!r} must be a finite number, got {value!r}", path, line)


def _coord(value, key: str, path, line: int) -> float:
    """A position coordinate: a finite number within MAX_COORDINATE of 0."""
    number = _num(value, key, path, line)
    if abs(number) > MAX_COORDINATE:
        raise SchemaError(
            f"key {key!r} must be within {MAX_COORDINATE:g} m of 0, got {value!r}", path, line
        )
    return number


def _text(record: dict, key: str, path, line: int, required: bool = True) -> str | None:
    """A JSON string as is, or an integer in decimal; an optional key that is
    absent or null is None."""
    value = record.get(key)
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    if value is None and not required:
        return None
    _req(record, key, path, line)  # an absent required key is reported as missing
    raise SchemaError(f"key {key!r} must be a string or an integer, got {value!r}", path, line)


def _parse_players(recs: list, path, line: int, warnings: list[str]):
    """The player table of one tracking record, in record order: ids, teams,
    positions, velocities, and the unknown keys of each player that has any.
    Ids and teams are interned, so the frames of a match share one copy of each."""
    ids, teams, xy, vxy, extras = [], [], [], [], {}
    for rec in recs:
        if not isinstance(rec, dict):
            raise SchemaError(f"player record must be an object, got {rec!r}", path, line)
        pid = _text(rec, "id", path, line)
        if not _XML_CHARS.fullmatch(pid):
            raise SchemaError(f"player id {pid!r} has a character XML 1.0 forbids", path, line)
        ids.append(sys.intern(pid))
        teams.append(sys.intern(_text(rec, "team", path, line)))
        x = _coord(_req(rec, "x", path, line), "x", path, line)
        y = _coord(_req(rec, "y", path, line), "y", path, line)
        if "vx" not in rec or "vy" not in rec:
            warnings.append(f"player {pid}: velocity missing, assuming stationary")
        vx = _num(rec.get("vx", 0.0), "vx", path, line)
        vy = _num(rec.get("vy", 0.0), "vy", path, line)
        speed = math.hypot(vx, vy)
        if speed > MAX_TRACKED_SPEED:
            # Tracking glitches produce superhuman speeds; keep direction, cap magnitude.
            warnings.append(f"player {pid}: speed {speed:.1f} m/s capped to {MAX_TRACKED_SPEED}")
            if speed == math.inf:  # hypot overflowed: bring the components into range first
                scale = max(abs(vx), abs(vy))
                vx, vy = vx / scale, vy / scale
                speed = math.hypot(vx, vy)
            vx *= MAX_TRACKED_SPEED / speed
            vy *= MAX_TRACKED_SPEED / speed
        xy.append((x, y))
        vxy.append((vx, vy))
        if not rec.keys() <= _PLAYER_KEYS:
            extras[pid] = {k: v for k, v in rec.items() if k not in _PLAYER_KEYS}
    xy, vxy = (np.array(rows, dtype=np.float64).reshape(-1, 2) for rows in (xy, vxy))
    return tuple(ids), np.array(teams, dtype=object), xy, vxy, extras


def _iter_json_lines(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON ({exc.msg})", path, line_no) from exc
            except ValueError as exc:  # an integer over the int-to-str digit limit
                raise SchemaError(f"invalid JSON ({exc})", path, line_no) from exc
            if not isinstance(record, dict):
                raise SchemaError("record must be a JSON object", path, line_no)
            yield line_no, record


def load_tracking(path: str | Path) -> list[TrackedFrame]:
    """Parse a tracking file into validated frames (strictly increasing frame index)."""
    frames: list[TrackedFrame] = []
    last_index: int | None = None
    for line_no, rec in _iter_json_lines(path):
        warnings: list[str] = []
        frame_index = _req(rec, "frame", path, line_no)
        if not isinstance(frame_index, int) or isinstance(frame_index, bool):
            raise SchemaError(f"'frame' must be an integer, got {frame_index!r}", path, line_no)
        if last_index is not None and frame_index <= last_index:
            raise SchemaError(
                f"non-monotone frame index: {frame_index} follows {last_index}", path, line_no
            )
        last_index = frame_index
        time = _num(_req(rec, "time", path, line_no), "time", path, line_no)
        ball_rec = _req(rec, "ball", path, line_no)
        if not isinstance(ball_rec, dict):
            raise SchemaError("'ball' must be an object", path, line_no)
        ball = Ball(
            pos=Point2(
                _coord(_req(ball_rec, "x", path, line_no), "ball.x", path, line_no),
                _coord(_req(ball_rec, "y", path, line_no), "ball.y", path, line_no),
            ),
            vel=Point2(
                _num(ball_rec.get("vx", 0.0), "ball.vx", path, line_no),
                _num(ball_rec.get("vy", 0.0), "ball.vy", path, line_no),
            ),
        )
        player_recs = _req(rec, "players", path, line_no)
        if not isinstance(player_recs, list):
            raise SchemaError("'players' must be a list", path, line_no)
        if len(player_recs) > 22:
            raise SchemaError(f"{len(player_recs)} players exceeds the 22-player bound", path, line_no)
        ids, teams, xy, vxy, extras = _parse_players(player_recs, path, line_no, warnings)
        if len(set(ids)) < len(ids):
            dup = next(pid for i, pid in enumerate(ids) if pid in ids[:i])
            raise SchemaError(f"duplicate player id {dup!r}", path, line_no)
        if len(ids) < 22:
            warnings.append(f"missing players: {len(ids)}/22 present")
        period = rec.get("period", 1)
        if not isinstance(period, int) or isinstance(period, bool):
            raise SchemaError(f"'period' must be an integer, got {period!r}", path, line_no)
        extra = {k: v for k, v in rec.items() if k not in _TRACKING_KEYS}
        meta = FrameMetadata(
            period=period,
            attacking_team_id=_text(rec, "attacking_team", path, line_no, required=False),
            attacks_right_team=_text(rec, "attacks_right", path, line_no, required=False),
            warnings=tuple(warnings),
            extra=extra,
        )
        frames.append(TrackedFrame(frame_index, time, ball, ids, teams, xy, vxy, meta, extras))
    if not frames:
        raise SchemaError("tracking file contains no frames", path, 1)
    flagged = sum(1 for f in frames if f.metadata.warnings)
    if flagged:
        first = next(f for f in frames if f.metadata.warnings)
        logger.warning(
            "%s: %d/%d frames flagged (first: frame %d: %s)",
            path, flagged, len(frames), first.frame_index, first.metadata.warnings[0],
        )
    return frames


def load_events(path: str | Path) -> list[MatchEvent]:
    """Parse an event file; passes must carry a binary outcome."""
    events: list[MatchEvent] = []
    for line_no, rec in _iter_json_lines(path):
        event_id = _text(rec, "event_id", path, line_no)
        etype = _text(rec, "type", path, line_no)
        frame = _req(rec, "frame", path, line_no)
        if not isinstance(frame, int) or isinstance(frame, bool):
            raise SchemaError(f"'frame' must be an integer, got {frame!r}", path, line_no)
        team = _text(rec, "team", path, line_no)
        player = _text(rec, "player", path, line_no)
        x = _coord(_req(rec, "x", path, line_no), "x", path, line_no)
        y = _coord(_req(rec, "y", path, line_no), "y", path, line_no)
        receiver = _text(rec, "receiver", path, line_no, required=False)
        outcome = _text(rec, "outcome", path, line_no, required=False)
        if etype == "pass":
            if outcome not in ("success", "failure"):
                raise SchemaError(
                    f"pass outcome must be 'success' or 'failure', got {outcome!r}", path, line_no
                )
            if receiver is None:
                logger.warning("%s:%d: pass %s has no receiver", path, line_no, event_id)
        extra = {k: v for k, v in rec.items() if k not in _EVENT_KEYS}
        events.append(
            MatchEvent(
                event_id=event_id,
                type=etype,
                frame=frame,
                team=team,
                player=player,
                pos=Point2(x, y),
                receiver=receiver,
                outcome=outcome,
                extra=extra,
            )
        )
    return events


def load_match(
    tracking_path: str | Path, events_path: str | Path
) -> tuple[list[TrackedFrame], list[MatchEvent]]:
    """Load and validate one match (tracking + events)."""
    return load_tracking(tracking_path), load_events(events_path)


def _frame_record(f: TrackedFrame) -> dict:
    rec: dict = {
        "frame": f.frame_index,
        "time": f.time,
        "ball": {"x": f.ball.pos.x, "y": f.ball.pos.y, "vx": f.ball.vel.x, "vy": f.ball.vel.y},
        "players": [
            {"id": pid, "team": team, "x": x, "y": y, "vx": vx, "vy": vy,
             **{k: f.extras[pid][k] for k in sorted(f.extras.get(pid, ()))}}
            for pid, team, (x, y), (vx, vy) in zip(
                f.ids, f.teams.tolist(), f.xy.tolist(), f.vxy.tolist()
            )
        ],
    }
    if f.metadata.period != 1:
        rec["period"] = f.metadata.period
    if f.metadata.attacking_team_id is not None:
        rec["attacking_team"] = f.metadata.attacking_team_id
    if f.metadata.attacks_right_team is not None:
        rec["attacks_right"] = f.metadata.attacks_right_team
    for k in sorted(f.metadata.extra):
        rec[k] = f.metadata.extra[k]
    return rec


def _event_record(e: MatchEvent) -> dict:
    rec: dict = {
        "event_id": e.event_id,
        "type": e.type,
        "frame": e.frame,
        "team": e.team,
        "player": e.player,
        "x": e.pos.x,
        "y": e.pos.y,
    }
    if e.receiver is not None:
        rec["receiver"] = e.receiver
    if e.outcome is not None:
        rec["outcome"] = e.outcome
    for k in sorted(e.extra):
        rec[k] = e.extra[k]
    return rec


def write_json(path: str | Path, doc, indent: int) -> None:
    """Write one JSON artifact: sorted keys, the given indent, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def save_match(
    frames: Iterable[TrackedFrame],
    events: Iterable[MatchEvent],
    tracking_path: str | Path,
    events_path: str | Path,
) -> None:
    """Write a match back to the line-oriented formats (loads back identically)."""
    with open(tracking_path, "w", encoding="utf-8") as fh:
        for f in frames:
            fh.write(json.dumps(_frame_record(f)) + "\n")
    with open(events_path, "w", encoding="utf-8") as fh:
        for e in events:
            fh.write(json.dumps(_event_record(e)) + "\n")


# ---------------------------------------------------------------------------
# Kickoff synchronization
# ---------------------------------------------------------------------------


def detect_kickoff_frame(frames: list[TrackedFrame], event_kickoff_frame_hint: int) -> int:
    """Locate the kickoff in tracking frames near the event-data hint.

    Searches the window of +-50 frames around the hint, estimates ball
    acceleration from the position trace (central differences, one-sided at
    window edges), and returns the argmax-acceleration frame minus 4. Ties go
    to the earliest frame; a truncated window shrinks with a warning.
    """
    if not frames:
        raise ValueError("no frames supplied")
    indices = [f.frame_index for f in frames]
    lo = bisect_left(indices, event_kickoff_frame_hint - KICKOFF_WINDOW)
    hi = bisect_right(indices, event_kickoff_frame_hint + KICKOFF_WINDOW)
    window = frames[lo:hi]
    if len(window) < 2 * KICKOFF_WINDOW + 1:
        logger.warning(
            "kickoff window around frame %d truncated to %d frames",
            event_kickoff_frame_hint,
            len(window),
        )
    if len(window) < 3:
        raise ValueError(
            f"kickoff window around frame {event_kickoff_frame_hint} has only "
            f"{len(window)} frames; need at least 3"
        )
    pos = np.array([(f.ball.pos.x, f.ball.pos.y) for f in window])
    t = np.array([f.time for f in window])
    if np.any(np.diff(t) <= 0):
        raise ValueError("frame timestamps must be strictly increasing in the kickoff window")
    vel = np.gradient(pos, t, axis=0)
    acc = np.gradient(vel, t, axis=0)
    mag = np.hypot(acc[:, 0], acc[:, 1])
    # Timestamp rounding alone produces ~1e-12 m/s^2 of second-difference
    # noise; anything under this floor is indistinguishable from a ball that
    # never accelerated.
    if float(mag.max() - mag.min()) <= 1e-6:
        logger.warning("degenerate ball acceleration in kickoff window; using earliest frame")
        peak = 0
    else:
        peak = int(np.argmax(mag))  # first maximum -> earliest on ties
    return window[peak].frame_index - KICKOFF_BACKOFF


def synchronization_shift(frames: list[TrackedFrame], events: list[MatchEvent]) -> dict[int, int]:
    """Per-period shift to add to event frame indices to land on tracking frames.

    The hint for each period is its kickoff event's frame; periods without a
    kickoff event get shift 0 with a warning.
    """
    shifts: dict[int, int] = {}
    periods = sorted({f.metadata.period for f in frames})
    for period in periods:
        period_frames = [f for f in frames if f.metadata.period == period]
        kickoffs = [e for e in events if e.type == "kickoff"]
        hint = None
        for e in kickoffs:
            # Kickoff events carry event-clock frames; match them to the period
            # whose tracking span they fall nearest to.
            first, last = period_frames[0].frame_index, period_frames[-1].frame_index
            if first - KICKOFF_WINDOW <= e.frame <= last + KICKOFF_WINDOW:
                hint = e.frame
                break
        if hint is None:
            logger.warning("period %d has no kickoff event in range; assuming shift 0", period)
            shifts[period] = 0
            continue
        shifts[period] = detect_kickoff_frame(period_frames, hint) - hint
    return shifts


def apply_shift(events: list[MatchEvent], shifts: dict[int, int], frames: list[TrackedFrame]) -> list[MatchEvent]:
    """Shift event frame indices into tracking-frame space."""
    bounds: list[tuple[int, int, int]] = []
    for period in sorted(shifts):
        pf = [f for f in frames if f.metadata.period == period]
        bounds.append((pf[0].frame_index, pf[-1].frame_index, period))

    def period_of(frame_index: int) -> int:
        for first, last, period in bounds:
            if frame_index <= last + KICKOFF_WINDOW:
                return period
        return bounds[-1][2]

    return [replace(e, frame=e.frame + shifts[period_of(e.frame)]) for e in events]


# ---------------------------------------------------------------------------
# Attack-sequence segmentation
# ---------------------------------------------------------------------------


def segment_attack_sequences(
    events: list[MatchEvent], frames: list[TrackedFrame]
) -> tuple[list[AttackSequence], list[DroppedEvents]]:
    """Split events into possession sequences.

    A sequence opens at a set play or a possession gain and survives isolated
    opponent touches; it closes when the opponent records two consecutive
    on-ball events (the second touch triggers closure and the opponent's
    sequence opens retroactively at their first). Spans shorter than
    MIN_SEQUENCE_SECONDS and events referencing missing frames produce drop
    records instead of sequences.
    """
    frame_time = {f.frame_index: f.time for f in frames}
    sequences: list[AttackSequence] = []
    drops: list[DroppedEvents] = []
    counter = 0

    current_team: str | None = None
    current_events: list[MatchEvent] = []
    poisoned = False
    opp_run: list[MatchEvent] = []

    def close(end_events: list[MatchEvent]) -> None:
        nonlocal counter, poisoned
        if not end_events:
            return
        ids = tuple(e.event_id for e in end_events)
        team_events = [e for e in end_events if e.team == current_team]
        start = end_events[0].frame
        end = team_events[-1].frame if team_events else end_events[-1].frame
        if poisoned:
            drops.append(DroppedEvents(ids, "event referenced a missing frame"))
            logger.warning("sequence dropped (missing frame): events %s", ids)
            return
        duration = frame_time[end] - frame_time[start]
        if duration < MIN_SEQUENCE_SECONDS:
            drops.append(DroppedEvents(ids, f"span {duration:.2f}s below {MIN_SEQUENCE_SECONDS}s floor"))
            logger.warning("sequence dropped (%.2fs span): events %s", duration, ids)
            return
        counter += 1
        sequences.append(
            AttackSequence(
                sequence_id=f"seq-{counter:04d}",
                team_id=current_team or "",
                start_frame=start,
                end_frame=end,
                event_ids=ids,
            )
        )

    last_frame = None
    for ev in events:
        if last_frame is not None and ev.frame < last_frame:
            raise ValueError("events must be sorted by frame")
        last_frame = ev.frame
        missing = ev.frame not in frame_time

        if current_team is None:
            current_team, current_events, poisoned, opp_run = ev.team, [ev], missing, []
            continue

        if ev.type in SET_PLAY_TYPES:
            # A set play means the ball went dead: previous attack is over.
            close(current_events)
            if opp_run:
                drops.append(
                    DroppedEvents(tuple(e.event_id for e in opp_run), "opponent touches before a set play")
                )
            current_team, current_events, poisoned, opp_run = ev.team, [ev], missing, []
            continue

        if ev.team == current_team:
            current_events.extend(opp_run)  # tolerated isolated opponent touches
            poisoned = poisoned or missing or any(e.frame not in frame_time for e in opp_run)
            opp_run = []
            current_events.append(ev)
        else:
            opp_run.append(ev)
            if len(opp_run) >= 2:
                # Effective opponent possession: close and hand over.
                run = opp_run
                close(current_events)
                run_missing = any(e.frame not in frame_time for e in run)
                current_team, current_events, poisoned, opp_run = ev.team, list(run), run_missing, []

    close(current_events)
    if opp_run:
        drops.append(
            DroppedEvents(tuple(e.event_id for e in opp_run), "trailing opponent touches at match end")
        )
    return sequences, drops
