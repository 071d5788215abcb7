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
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .pitch import MAX_COORDINATE, MAX_TRACKED_SPEED, Ball, Point2

logger = logging.getLogger(__name__)

KICKOFF_WINDOW = 50  # frames searched on each side of the kickoff hint
KICKOFF_BACKOFF = 4  # kickoff is this many frames before the acceleration peak
MIN_SEQUENCE_SECONDS = 1.0  # spans shorter than this are degenerate and dropped
MAX_PLAYERS = 22  # players a tracking record may hold

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


@contextmanager
def located(path: str | Path, line: int | None = None) -> Iterator[None]:
    """Attach the place of the input being read to what the block refuses:
    a ValueError raised inside it, such as a bare SchemaError from a
    validator, becomes a SchemaError under `path` and `line`. A SchemaError
    that already names a file passes through unchanged, so the innermost
    block wins; other exceptions pass through untouched."""
    try:
        yield
    except ValueError as exc:
        if isinstance(exc, SchemaError) and exc.path is not None:
            raise
        raise SchemaError(str(exc), path, line) from None


@dataclass(frozen=True)
class FrameMetadata:
    period: int = 1
    attacking_team_id: str | None = None  # team in possession, when known
    attacks_right_team: str | None = None  # team playing toward +x, when known
    warnings: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PlayerState:
    """Kinematic state of one player at one instant: a `TrackedFrame.players` record."""

    player_id: str
    team: str
    pos: Point2
    vel: Point2 = Point2(0.0, 0.0)
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
    team: str
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


def _req(record: dict, key: str):
    if key not in record:
        raise SchemaError(f"missing required key {key!r}")
    return record[key]


def _num(value, key: str) -> float:
    if type(value) in (int, float):  # a bool is neither type
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise SchemaError(f"key {key!r} must be a finite number, got {value!r}")


def _coord(value, key: str) -> float:
    """A position coordinate: a finite number within MAX_COORDINATE of 0."""
    number = _num(value, key)
    if abs(number) > MAX_COORDINATE:
        raise SchemaError(f"key {key!r} must be within {MAX_COORDINATE:g} m of 0, got {value!r}")
    return number


def _text(record: dict, key: str, required: bool = True) -> str | None:
    """A JSON string as is, or an integer in decimal; an optional key that is
    absent or null is None."""
    value = record.get(key)
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    if value is None and not required:
        return None
    _req(record, key)  # an absent required key is reported as missing
    raise SchemaError(f"key {key!r} must be a string or an integer, got {value!r}")


def _parse_players(recs: list, warnings: list[str]):
    """The player table of one tracking record, in record order: ids, teams,
    positions, velocities, and the unknown keys of each player that has any.
    Ids and teams are interned, so the frames of a match share one copy of each."""
    ids, teams, xy, vxy, extras = [], [], [], [], {}
    for rec in recs:
        if not isinstance(rec, dict):
            raise SchemaError(f"player record must be an object, got {rec!r}")
        pid = _text(rec, "id")
        if not _XML_CHARS.fullmatch(pid):
            raise SchemaError(f"player id {pid!r} has a character XML 1.0 forbids")
        ids.append(sys.intern(pid))
        teams.append(sys.intern(_text(rec, "team")))
        x = _coord(_req(rec, "x"), "x")
        y = _coord(_req(rec, "y"), "y")
        if "vx" not in rec or "vy" not in rec:
            warnings.append(f"player {pid}: velocity missing, assuming stationary")
        vx = _num(rec.get("vx", 0.0), "vx")
        vy = _num(rec.get("vy", 0.0), "vy")
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
        with located(path, line_no):
            warnings: list[str] = []
            frame_index = _req(rec, "frame")
            if not isinstance(frame_index, int) or isinstance(frame_index, bool):
                raise SchemaError(f"'frame' must be an integer, got {frame_index!r}")
            if last_index is not None and frame_index <= last_index:
                raise SchemaError(f"non-monotone frame index: {frame_index} follows {last_index}")
            last_index = frame_index
            time = _num(_req(rec, "time"), "time")
            ball_rec = _req(rec, "ball")
            if not isinstance(ball_rec, dict):
                raise SchemaError("'ball' must be an object")
            ball = Ball(
                pos=Point2(
                    _coord(_req(ball_rec, "x"), "ball.x"),
                    _coord(_req(ball_rec, "y"), "ball.y"),
                ),
                vel=Point2(
                    _num(ball_rec.get("vx", 0.0), "ball.vx"),
                    _num(ball_rec.get("vy", 0.0), "ball.vy"),
                ),
            )
            player_recs = _req(rec, "players")
            if not isinstance(player_recs, list):
                raise SchemaError("'players' must be a list")
            if len(player_recs) > MAX_PLAYERS:
                raise SchemaError(
                    f"{len(player_recs)} players exceeds the {MAX_PLAYERS}-player bound"
                )
            ids, teams, xy, vxy, extras = _parse_players(player_recs, warnings)
            if len(set(ids)) < len(ids):
                dup = next(pid for i, pid in enumerate(ids) if pid in ids[:i])
                raise SchemaError(f"duplicate player id {dup!r}")
            period = rec.get("period", 1)
            if not isinstance(period, int) or isinstance(period, bool):
                raise SchemaError(f"'period' must be an integer, got {period!r}")
            extra = {k: v for k, v in rec.items() if k not in _TRACKING_KEYS}
            meta = FrameMetadata(
                period=period,
                attacking_team_id=_text(rec, "attacking_team", required=False),
                attacks_right_team=_text(rec, "attacks_right", required=False),
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
    roster = max(len(f.ids) for f in frames)
    short = sum(1 for f in frames if len(f.ids) < roster)
    if short:
        logger.warning(
            "%s: %d/%d frames hold fewer players than the largest roster (%d)",
            path, short, len(frames), roster,
        )
    return frames


def load_events(path: str | Path) -> list[MatchEvent]:
    """Parse an event file; event ids must be unique and passes must carry a
    binary outcome."""
    events: list[MatchEvent] = []
    first_line: dict[str, int] = {}  # event id -> line it first appeared on
    for line_no, rec in _iter_json_lines(path):
        with located(path, line_no):
            event_id = _text(rec, "event_id")
            if event_id in first_line:
                raise SchemaError(
                    f"duplicate event id {event_id!r} (first on line {first_line[event_id]})"
                )
            first_line[event_id] = line_no
            etype = _text(rec, "type")
            frame = _req(rec, "frame")
            if not isinstance(frame, int) or isinstance(frame, bool):
                raise SchemaError(f"'frame' must be an integer, got {frame!r}")
            team = _text(rec, "team")
            player = _text(rec, "player")
            x = _coord(_req(rec, "x"), "x")
            y = _coord(_req(rec, "y"), "y")
            receiver = _text(rec, "receiver", required=False)
            outcome = _text(rec, "outcome", required=False)
            if etype == "pass" and outcome not in ("success", "failure"):
                raise SchemaError(f"pass outcome must be 'success' or 'failure', got {outcome!r}")
        if etype == "pass" and receiver is None:
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


def _period_spans(frames: list[TrackedFrame]) -> list[tuple[int, int, int]]:
    """(first, last, period): the frame-index span of each period, in period order."""
    indices: dict[int, list[int]] = {}
    for f in frames:
        indices.setdefault(f.metadata.period, []).append(f.frame_index)
    return [(idx[0], idx[-1], period) for period, idx in sorted(indices.items())]


def _span_of(frame_index: int, spans: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """The span that holds the frame index, else the one nearest to it (the
    earlier period on a tie): the one rule that maps event frames to periods."""
    return min(spans, key=lambda s: max(s[0] - frame_index, frame_index - s[1], 0))


def synchronization_shift(frames: list[TrackedFrame], events: list[MatchEvent]) -> dict[int, int]:
    """Per-period shift to add to event frame indices to land on tracking frames.

    The hint for each period is the frame of the first kickoff event that maps
    to it and lies within KICKOFF_WINDOW of its span; periods without one get
    shift 0 with a warning.
    """
    spans = _period_spans(frames)
    hints: dict[int, int] = {}
    for e in events:
        if e.type == "kickoff":
            first, last, period = _span_of(e.frame, spans)
            if first - KICKOFF_WINDOW <= e.frame <= last + KICKOFF_WINDOW:
                hints.setdefault(period, e.frame)
    shifts: dict[int, int] = {}
    for _, _, period in spans:
        hint = hints.get(period)
        if hint is None:
            logger.warning("period %d has no kickoff event in range; assuming shift 0", period)
            shifts[period] = 0
            continue
        period_frames = [f for f in frames if f.metadata.period == period]
        shifts[period] = detect_kickoff_frame(period_frames, hint) - hint
    return shifts


def apply_shift(events: list[MatchEvent], shifts: dict[int, int], frames: list[TrackedFrame]) -> list[MatchEvent]:
    """Shift event frame indices into tracking-frame space, each by the shift
    of the period whose span holds it (else the nearest span)."""
    spans = [span for span in _period_spans(frames) if span[2] in shifts]
    return [replace(e, frame=e.frame + shifts[_span_of(e.frame, spans)[2]]) for e in events]


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
    records instead of sequences. Events out of frame order raise ValueError.
    """
    frame_time = {f.frame_index: f.time for f in frames}
    for a, b in zip(events, events[1:]):
        if b.frame < a.frame:
            raise ValueError(
                f"event {b.event_id} at frame {b.frame} follows frame {a.frame}: "
                "events must be sorted by frame"
            )
    sequences: list[AttackSequence] = []
    drops: list[DroppedEvents] = []

    def drop(run: list[MatchEvent], reason: str) -> None:
        if run:
            drops.append(DroppedEvents(tuple(e.event_id for e in run), reason))

    def close(team: str, run: list[MatchEvent]) -> None:
        if not run:
            return
        ids = tuple(e.event_id for e in run)
        if any(e.frame not in frame_time for e in run):
            drop(run, "event referenced a missing frame")
            logger.warning("sequence dropped (missing frame): events %s", ids)
            return
        start, end = run[0].frame, run[-1].frame  # a run ends with its team's event
        duration = frame_time[end] - frame_time[start]
        if duration < MIN_SEQUENCE_SECONDS:
            drop(run, f"span {duration:.2f}s below {MIN_SEQUENCE_SECONDS}s floor")
            logger.warning("sequence dropped (%.2fs span): events %s", duration, ids)
            return
        sequences.append(AttackSequence(f"seq-{len(sequences) + 1:04d}", team, start, end, ids))

    team, current, opp = "", [], []
    for ev in events:
        if not current or ev.type in SET_PLAY_TYPES:
            # A set play means the ball went dead: the previous attack is
            # over. The first event opens the first sequence the same way.
            close(team, current)
            drop(opp, "opponent touches before a set play")
            team, current, opp = ev.team, [ev], []
        elif ev.team == team:
            current += [*opp, ev]  # tolerated isolated opponent touches
            opp = []
        elif opp:
            # Effective opponent possession: close and hand over.
            close(team, current)
            team, current, opp = ev.team, [*opp, ev], []
        else:
            opp = [ev]
    close(team, current)
    drop(opp, "trailing opponent touches at match end")
    return sequences, drops
