import csv
import gc
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from pitchspace.match_io import (
    AttackSequence,
    DroppedEvents,
    MatchEvent,
    SchemaError,
    apply_shift,
    detect_kickoff_frame,
    load_events,
    load_match,
    load_tracking,
    located,
    save_match,
    segment_attack_sequences,
    synchronization_shift,
)
from pitchspace.pitch import MAX_COORDINATE, Point2

FRAME_TEMPLATE = {
    "frame": 0,
    "time": 0.0,
    "ball": {"x": 0.0, "y": 0.0, "vx": 0.0, "vy": 0.0},
    "players": [
        {"id": f"A{i:02d}", "team": "A", "x": -10.0 - i, "y": 0.0, "vx": 0.0, "vy": 0.0}
        for i in range(11)
    ]
    + [
        {"id": f"B{i:02d}", "team": "B", "x": 10.0 + i, "y": 0.0, "vx": 0.0, "vy": 0.0}
        for i in range(11)
    ],
}


def write_tracking(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def frame_record(frame, time=None, **overrides):
    rec = json.loads(json.dumps(FRAME_TEMPLATE))
    rec["frame"] = frame
    rec["time"] = time if time is not None else frame * 0.1
    rec.update(overrides)
    return rec


class TestLoadTracking:
    def test_minimal_two_frame_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_tracking(p, [frame_record(0), frame_record(1)])
        frames = load_tracking(p)
        assert len(frames) == 2
        assert all(not f.metadata.warnings for f in frames)

    def test_missing_player_is_a_warning(self, tmp_path, caplog):
        # the roster is measured against the file's largest, not against 22
        short = frame_record(1)
        short["players"] = short["players"][:21]
        p = tmp_path / "t.jsonl"
        write_tracking(p, [frame_record(0), short])
        with caplog.at_level("WARNING"):
            frames = load_tracking(p)
        assert all(not f.metadata.warnings for f in frames)
        assert [r.message for r in caplog.records] == [
            f"{p}: 1/2 frames hold fewer players than the largest roster (22)"
        ]

    def test_smaller_full_roster_is_not_flagged(self, tmp_path, caplog):
        rec = frame_record(0)
        rec["players"] = rec["players"][:20]
        p = tmp_path / "t.jsonl"
        write_tracking(p, [rec, frame_record(1, players=rec["players"])])
        with caplog.at_level("WARNING"):
            load_tracking(p)
        assert caplog.records == []

    def test_non_monotone_frame_index_names_both(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_tracking(p, [frame_record(5), frame_record(3)])
        with pytest.raises(SchemaError) as exc:
            load_tracking(p)
        assert "3" in str(exc.value) and "5" in str(exc.value)
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "path, line, text",
        [
            ("tracking.jsonl", 4, "tracking.jsonl:4: bad frame"),
            ("tracking.jsonl", None, "tracking.jsonl: bad frame"),
            (None, None, "bad frame"),
        ],
    )
    def test_schema_error_names_the_file(self, path, line, text):
        assert str(SchemaError("bad frame", path, line)) == text

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(frame_record(0)) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_tracking(p)
        assert exc.value.line == 2

    def test_missing_required_key(self, tmp_path):
        rec = frame_record(0)
        del rec["ball"]
        p = tmp_path / "t.jsonl"
        write_tracking(p, [rec])
        with pytest.raises(SchemaError) as exc:
            load_tracking(p)
        assert "ball" in str(exc.value)

    def test_too_many_players(self, tmp_path):
        rec = frame_record(0)
        rec["players"].append(dict(rec["players"][0], id="X99"))
        p = tmp_path / "t.jsonl"
        write_tracking(p, [rec])
        with pytest.raises(SchemaError):
            load_tracking(p)

    # the last velocity overflows math.hypot although both components are finite
    @pytest.mark.parametrize("vxy", [(20.0, 0.0), (1.7e308, -1.7e308)])
    def test_superhuman_speed_capped_with_warning(self, tmp_path, vxy):
        rec = frame_record(0)
        rec["players"][0]["vx"], rec["players"][0]["vy"] = vxy
        p = tmp_path / "t.jsonl"
        write_tracking(p, [rec])
        frames = load_tracking(p)
        assert any("capped" in w for w in frames[0].metadata.warnings)
        vel = frames[0].players[0].vel
        assert math.hypot(*vel) == pytest.approx(13.0, rel=1e-12)
        assert math.atan2(vel.y, vel.x) == pytest.approx(math.atan2(vxy[1], vxy[0]), abs=1e-12)

    def test_unknown_keys_preserved(self, tmp_path):
        rec = frame_record(0, vendor_tag="xyz")
        p = tmp_path / "t.jsonl"
        write_tracking(p, [rec])
        frames = load_tracking(p)
        assert frames[0].metadata.extra == {"vendor_tag": "xyz"}

    def test_round_trip_identity(self, tmp_path):
        records = [frame_record(i, attacks_right="A") for i in range(4)]
        records[2]["players"][3]["nickname"] = "el niño"
        write_tracking(tmp_path / "t.jsonl", records)
        events = [
            {"event_id": "E1", "type": "pass", "frame": 1, "team": "A", "player": "A00",
             "receiver": "A01", "outcome": "success", "x": 1.0, "y": 2.0, "vendor": 9},
            {"event_id": "E2", "type": "shot", "frame": 3, "team": "A", "player": "A01",
             "x": 40.0, "y": 0.0},
        ]
        (tmp_path / "e.jsonl").write_text(
            "\n".join(json.dumps(e) for e in events) + "\n", encoding="utf-8"
        )
        f1, e1 = load_match(tmp_path / "t.jsonl", tmp_path / "e.jsonl")
        save_match(f1, e1, tmp_path / "t2.jsonl", tmp_path / "e2.jsonl")
        f2, e2 = load_match(tmp_path / "t2.jsonl", tmp_path / "e2.jsonl")
        assert f1 == f2
        assert e1 == e2



class TestArrayFrames:
    def test_frame_holds_one_array_table(self, tmp_path):
        rec = frame_record(0)
        rec["players"][1].update(vx=1.5, vy=-2.0, nickname="el niño")
        write_tracking(tmp_path / "t.jsonl", [rec])
        frame = load_tracking(tmp_path / "t.jsonl")[0]
        assert frame.ids == tuple(p["id"] for p in rec["players"])
        assert frame.teams.tolist() == ["A"] * 11 + ["B"] * 11
        assert frame.xy.dtype == frame.vxy.dtype == np.float64
        assert frame.xy.tolist() == [[p["x"], p["y"]] for p in rec["players"]]
        assert frame.vxy[1].tolist() == [1.5, -2.0]
        assert frame.extras == {"A01": {"nickname": "el niño"}}  # only players with extras
        assert not frame.xy.flags.writeable
        assert frame.with_players() == frame
        assert frame.with_players(xy=frame.xy + 1.0) != frame
        assert frame.with_players(teams=frame.teams[::-1].copy()) != frame
        view = frame.players[1]
        assert (view.player_id, view.team, view.pos, view.vel) == ("A01", "A", Point2(-11.0, 0.0),
                                                                   Point2(1.5, -2.0))
        assert view.extra == {"nickname": "el niño"}

    def test_team_ids_keep_every_character(self, tmp_path):
        rec = frame_record(0)
        rec["players"][0]["team"] = "A\u0000"  # a numpy str array would drop the NUL
        write_tracking(tmp_path / "t.jsonl", [rec])
        frames = load_tracking(tmp_path / "t.jsonl")
        assert frames[0].teams[0] == "A\u0000"
        save_match(frames, [], tmp_path / "t2.jsonl", tmp_path / "e2.jsonl")
        assert load_tracking(tmp_path / "t2.jsonl") == frames

    def test_library_paths_never_read_the_players_view(self, tmp_path, monkeypatch):
        from pitchspace.cli import cli_dispatch
        from pitchspace.dominance import (
            DEFENDING,
            MotionParams,
            directional_space_deltas,
            offside_positions,
        )
        from pitchspace.features import build_dataset, onball_features, orient_frame
        from pitchspace.match_io import TrackedFrame
        from pitchspace.pitch import PitchSpec, WeightParams
        from pitchspace.synth import SynthConfig, synthesize_match

        def refuse(frame):
            raise AssertionError("a library path read TrackedFrame.players")

        monkeypatch.setattr(TrackedFrame, "players", property(refuse))
        pitch, mp, w = PitchSpec(grid_cell=2.0), MotionParams(), WeightParams()
        config = SynthConfig(passes=12, opponent_pass_rate=0.5, noise=0.3, kickoff_frames=60)
        frames, events, _ = synthesize_match(config, seed=5)
        tracking, events_path = tmp_path / "tracking.jsonl", tmp_path / "events.jsonl"
        save_match(frames, events, tracking, events_path)
        frames, events = load_match(tracking, events_path)
        table, _ = build_dataset([(frames, events)], 3, "dist_ball", pitch, mp, w)
        assert len(table) == 12
        by_index = {f.frame_index: f for f in frames}
        passes = [
            (e, orient_frame(by_index[e.frame], e.team)) for e in events if e.type == "pass"
        ]
        first, frame = next(
            (e, f) for e, f in passes
            if e.player not in offside_positions(f) and DEFENDING in f.teams.tolist()
        )
        assert onball_features(frame, first.player, pitch, mp, w).holder_id == first.player
        directional_space_deltas(frame, first.player, pitch, mp, w)
        out = tmp_path / "render"
        argv = ["render", "--tracking", str(tracking), "--events", str(events_path), "--out", str(out)]
        assert cli_dispatch(argv) == 0
        assert len(list(out.glob("frame_*.svg"))) == len(frames)

    def test_loaded_frames_hold_at_most_4_kb_each(self, tmp_path):
        from pitchspace.synth import SynthConfig, synthesize_match

        frames, events, _ = synthesize_match(SynthConfig(passes=200), seed=3)
        save_match(frames, events, tmp_path / "t.jsonl", tmp_path / "e.jsonl")
        del frames, events
        gc.collect()
        tracemalloc.start()
        try:
            frames = load_tracking(tmp_path / "t.jsonl")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / len(frames) <= 4096


# JSON values that are neither a string nor an integer
NOT_TEXT = [
    pytest.param(True, id="bool"),
    pytest.param(1.5, id="float"),
    pytest.param(["A01"], id="list"),
    pytest.param({"id": "A01"}, id="object"),
]
NULL = pytest.param(None, id="null")


def event_record(**overrides):
    # not a pass, so no outcome check runs before the key checks
    rec = {"event_id": "E1", "type": "shot", "frame": 1, "team": "A", "player": "A00",
           "x": 0.0, "y": 0.0}
    rec.update(overrides)
    return rec


def write_events(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


class TestTextKeys:
    """Id-like keys take a JSON string or integer; anything else is a located
    SchemaError, and null counts as absent only for an optional key."""

    @pytest.mark.parametrize("value", [*NOT_TEXT, NULL])
    @pytest.mark.parametrize("key", ["id", "team"])
    def test_player_key(self, tmp_path, key, value):
        rec = frame_record(0)
        rec["players"][2][key] = value
        write_tracking(tmp_path / "t.jsonl", [frame_record(-1), rec])
        with pytest.raises(SchemaError, match=f":2: key '{key}' must be a string or an integer"):
            load_tracking(tmp_path / "t.jsonl")

    @pytest.mark.parametrize("value", NOT_TEXT)
    @pytest.mark.parametrize("key", ["attacks_right", "attacking_team"])
    def test_frame_key(self, tmp_path, key, value):
        write_tracking(tmp_path / "t.jsonl", [frame_record(0, **{key: value})])
        with pytest.raises(SchemaError, match=f":1: key '{key}' must be a string or an integer"):
            load_tracking(tmp_path / "t.jsonl")

    @pytest.mark.parametrize("value", [*NOT_TEXT, NULL])
    @pytest.mark.parametrize("key", ["event_id", "type", "team", "player"])
    def test_required_event_key(self, tmp_path, key, value):
        records = [event_record(event_id="E0"), event_record(**{key: value})]
        write_events(tmp_path / "e.jsonl", records)
        with pytest.raises(SchemaError, match=f":2: key '{key}' must be a string or an integer"):
            load_events(tmp_path / "e.jsonl")

    @pytest.mark.parametrize("value", NOT_TEXT)
    @pytest.mark.parametrize("key", ["receiver", "outcome"])
    def test_optional_event_key(self, tmp_path, key, value):
        write_events(tmp_path / "e.jsonl", [event_record(**{key: value})])
        with pytest.raises(SchemaError, match=f":1: key '{key}' must be a string or an integer"):
            load_events(tmp_path / "e.jsonl")

    def test_missing_required_key_is_named_missing(self, tmp_path):
        rec = event_record()
        del rec["player"]
        write_events(tmp_path / "e.jsonl", [rec])
        with pytest.raises(SchemaError, match=":1: missing required key 'player'"):
            load_events(tmp_path / "e.jsonl")

    def test_integers_load_as_decimal_text_and_null_optionals_as_absent(self, tmp_path):
        rec = frame_record(0, attacks_right=None, attacking_team=7)
        rec["players"][0].update(id=10, team=7)
        write_tracking(tmp_path / "t.jsonl", [rec])
        frame = load_tracking(tmp_path / "t.jsonl")[0]
        assert (frame.players[0].player_id, frame.players[0].team) == ("10", "7")
        assert frame.metadata.attacks_right_team is None
        assert frame.metadata.attacking_team_id == "7"
        write_events(tmp_path / "e.jsonl", [event_record(event_id=3, type="shot", team=7,
                                                         player=10, receiver=None, outcome=None)])
        ev = load_events(tmp_path / "e.jsonl")[0]
        assert (ev.event_id, ev.team, ev.player) == ("3", "7", "10")
        assert ev.receiver is None and ev.outcome is None


class TestHugeIntegers:
    """An integer beyond the float range is not a finite number, and one over
    the int-to-str digit limit is not JSON the loader can read: both are
    located SchemaErrors."""

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("time", lambda rec: rec.__setitem__("time", 10**400)),
            ("ball.x", lambda rec: rec["ball"].__setitem__("x", -(10**400))),
            ("x", lambda rec: rec["players"][3].__setitem__("x", 2**1024)),
            ("vy", lambda rec: rec["players"][3].__setitem__("vy", 10**400)),
        ],
    )
    def test_tracking_integer_beyond_float_range(self, tmp_path, key, edit):
        rec = frame_record(1)
        edit(rec)
        write_tracking(tmp_path / "t.jsonl", [frame_record(0), rec])
        with pytest.raises(SchemaError, match=f"t.jsonl:2: key '{key}' must be a finite number"):
            load_tracking(tmp_path / "t.jsonl")

    def test_largest_float_integer_loads(self, tmp_path):
        big = int(sys.float_info.max)
        write_tracking(tmp_path / "t.jsonl", [frame_record(0, time=big)])
        assert load_tracking(tmp_path / "t.jsonl")[0].time == sys.float_info.max

    def test_event_integer_beyond_float_range(self, tmp_path):
        write_events(tmp_path / "e.jsonl", [event_record(event_id="E0"), event_record(y=10**400)])
        with pytest.raises(SchemaError, match="e.jsonl:2: key 'y' must be a finite number"):
            load_events(tmp_path / "e.jsonl")

    def test_integer_over_the_digit_limit_is_invalid_json(self, tmp_path):
        digits = "9" * 4301
        write_tracking(tmp_path / "t.jsonl", [frame_record(0)])
        with open(tmp_path / "t.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(frame_record(1)).replace('"time": 0.1', f'"time": {digits}') + "\n")
        with pytest.raises(SchemaError, match="t.jsonl:2: invalid JSON"):
            load_tracking(tmp_path / "t.jsonl")
        (tmp_path / "e.jsonl").write_text(f'{{"event_id": {digits}}}\n', encoding="utf-8")
        with pytest.raises(SchemaError, match="e.jsonl:1: invalid JSON"):
            load_events(tmp_path / "e.jsonl")


class TestCoordinateBound:
    """A position coordinate beyond MAX_COORDINATE is a located SchemaError,
    so no squared distance from it can overflow; one at the bound loads."""

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("x", lambda rec: rec["players"][3].__setitem__("x", -1e200)),
            ("y", lambda rec: rec["players"][0].__setitem__("y", 2e150)),
            ("ball.x", lambda rec: rec["ball"].__setitem__("x", 10**151)),
            ("ball.y", lambda rec: rec["ball"].__setitem__("y", -1.0000000000000002e150)),
        ],
    )
    def test_tracking_coordinate_beyond_bound(self, tmp_path, key, edit):
        rec = frame_record(1)
        edit(rec)
        write_tracking(tmp_path / "t.jsonl", [frame_record(0), rec])
        with pytest.raises(SchemaError, match=f"t.jsonl:2: key '{key}' must be within 1e\\+150 m"):
            load_tracking(tmp_path / "t.jsonl")

    def test_event_coordinate_beyond_bound(self, tmp_path):
        write_events(tmp_path / "e.jsonl", [event_record(event_id="E0"), event_record(x=-1e151)])
        with pytest.raises(SchemaError, match="e.jsonl:2: key 'x' must be within"):
            load_events(tmp_path / "e.jsonl")

    def test_coordinate_at_bound_loads(self, tmp_path):
        rec = frame_record(0)
        rec["players"][3]["x"] = -MAX_COORDINATE
        rec["ball"]["y"] = MAX_COORDINATE
        write_tracking(tmp_path / "t.jsonl", [rec])
        frame = load_tracking(tmp_path / "t.jsonl")[0]
        assert frame.xy[3, 0] == -MAX_COORDINATE and frame.ball.pos.y == MAX_COORDINATE


class TestLocated:
    """`located` attaches the place of a refused input to a ValueError raised
    in its block, and to a SchemaError that names no file; it leaves every
    other exception alone."""

    @pytest.mark.parametrize("error", [ValueError("bad value"), SchemaError("bad value")])
    @pytest.mark.parametrize("line, where", [(7, "data/t.jsonl:7: "), (None, "data/t.jsonl: ")])
    def test_refusal_gets_the_path_and_line(self, error, line, where):
        with pytest.raises(SchemaError) as info:
            with located("data/t.jsonl", line):
                raise error
        assert str(info.value) == f"{where}bad value"
        assert (info.value.path, info.value.line) == ("data/t.jsonl", line)

    def test_an_error_that_names_a_file_passes_unchanged(self):
        error = SchemaError("bad value", "inner.csv", 3)
        with pytest.raises(SchemaError) as info:
            with located("outer.csv", 9):
                raise error
        assert info.value is error and str(error) == "inner.csv:3: bad value"

    def test_nested_blocks_keep_the_inner_location(self):
        with pytest.raises(SchemaError) as info:
            with located("model.json"):
                with located("features.csv", 4):
                    raise ValueError("bad value")
        assert str(info.value) == "features.csv:4: bad value"

    @pytest.mark.parametrize("error", [OSError(2, "no such file"), csv.Error("bad quote")])
    def test_other_errors_pass_untouched(self, error):
        with pytest.raises(type(error)) as info:
            with located("features.csv", 4):
                raise error
        assert info.value is error


class TestLoadEvents:
    def test_repeated_event_id_is_located(self, tmp_path):
        # Both rows would reach features.csv and attributions.csv under one id.
        ids = ["E0001", "E0003", "E0002", "E0003"]
        write_events(tmp_path / "e.jsonl", [event_record(event_id=e) for e in ids])
        with pytest.raises(
            SchemaError, match=r"e.jsonl:4: duplicate event id 'E0003' \(first on line 2\)"
        ):
            load_events(tmp_path / "e.jsonl")

    def test_pass_requires_outcome(self, tmp_path):
        p = tmp_path / "e.jsonl"
        p.write_text(
            json.dumps({"event_id": "E1", "type": "pass", "frame": 1, "team": "A",
                        "player": "A00", "x": 0.0, "y": 0.0}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError):
            load_events(p)

    def test_match_event_label(self, tmp_path):
        p = tmp_path / "e.jsonl"
        p.write_text(
            "".join(
                json.dumps({"event_id": f"E{i}", "type": etype, "frame": 4 + i, "team": "A",
                            "player": "A00", "receiver": "A03", "outcome": outcome,
                            "x": 1.5, "y": -2.0}) + "\n"
                for i, (etype, outcome) in enumerate(
                    [("pass", "failure"), ("pass", "success"), ("interception", None)]
                )
            ),
            encoding="utf-8",
        )
        events = load_events(p)
        assert [e.label for e in events] == [0, 1, 0]
        assert events[0].player == "A00" and events[0].receiver == "A03"
        assert events[0].pos == Point2(1.5, -2.0)


def impulse_frames(n, impulse, dt=0.1, v=(6.0, 2.0)):
    """Ball at rest, then constant velocity from the impulse frame on."""
    records = []
    for i in range(n):
        t = max(0, i - impulse) * dt
        rec = frame_record(i, time=i * dt)
        rec["ball"] = {"x": v[0] * t, "y": v[1] * t, "vx": 0.0, "vy": 0.0}
        records.append(rec)
    return records


class TestKickoffDetection:
    def test_planted_impulse(self, tmp_path):
        write_tracking(tmp_path / "t.jsonl", impulse_frames(200, impulse=100))
        frames = load_tracking(tmp_path / "t.jsonl")
        assert detect_kickoff_frame(frames, 98) == 96

    def test_constant_velocity_degenerates_to_earliest(self, tmp_path, caplog):
        records = []
        for i in range(200):
            rec = frame_record(i)
            rec["ball"] = {"x": 0.5 * i, "y": 0.0, "vx": 5.0, "vy": 0.0}
            records.append(rec)
        write_tracking(tmp_path / "t.jsonl", records)
        frames = load_tracking(tmp_path / "t.jsonl")
        with caplog.at_level("WARNING"):
            detected = detect_kickoff_frame(frames, 100)
        assert detected == 50 - 4  # earliest window frame minus 4
        assert any("degenerate" in r.message for r in caplog.records)

    def test_clipped_window(self, tmp_path, caplog):
        write_tracking(tmp_path / "t.jsonl", impulse_frames(90, impulse=20))
        frames = load_tracking(tmp_path / "t.jsonl")
        with caplog.at_level("WARNING"):
            detected = detect_kickoff_frame(frames, 30)  # window clipped to [0, 80]
        assert detected == 16
        assert any("truncated" in r.message for r in caplog.records)

    def test_shift_then_rerun_gives_zero(self, tmp_path):
        write_tracking(tmp_path / "t.jsonl", impulse_frames(200, impulse=100))
        frames = load_tracking(tmp_path / "t.jsonl")
        events = [
            MatchEvent("E0", "kickoff", 90, "A", "A00", Point2(0, 0)),
            MatchEvent("E1", "pass", 120, "A", "A00", Point2(0, 0), receiver="A01",
                       outcome="success"),
        ]
        shifts = synchronization_shift(frames, events)
        assert shifts == {1: 6}  # detected 96, hint 90
        shifted = apply_shift(events, shifts, frames)
        assert [e.frame for e in shifted] == [96, 126]
        assert synchronization_shift(frames, shifted) == {1: 0}

    def test_event_takes_the_shift_of_the_period_that_holds_it(self, tmp_path):
        frames = two_period_frames(tmp_path, impulse=240)
        # 210 lies within KICKOFF_WINDOW of period 1's last frame, but in period 2;
        # 420 is past every span and takes the nearest one's shift
        events = [ev(f"E{f}", "pass", f, "A") for f in (5, 199, 200, 210, 420)]
        shifted = apply_shift(events, {1: 3, 2: -7}, frames)
        assert [e.frame for e in shifted] == [8, 202, 193, 203, 413]

    def test_kickoff_is_the_hint_of_its_own_period_only(self, tmp_path, caplog):
        # Period 1 has no kickoff event. Period 2's, at 230, lies within
        # KICKOFF_WINDOW of period 1's span too, but is no hint for it.
        frames = two_period_frames(tmp_path, impulse=240)
        with caplog.at_level("WARNING"):
            shifts = synchronization_shift(frames, [ev("K2", "kickoff", 230, "B")])
        assert shifts == {1: 0, 2: 6}  # detected 236, hint 230
        assert any("period 1 has no kickoff" in r.message for r in caplog.records)


def two_period_frames(tmp_path, impulse):
    """Frames 0-199 of period 1 and 200-399 of period 2, the ball at rest
    until the impulse frame."""
    records = impulse_frames(400, impulse)
    for rec in records[200:]:
        rec["period"] = 2
    write_tracking(tmp_path / "t.jsonl", records)
    return load_tracking(tmp_path / "t.jsonl")


def ev(eid, etype, frame, team, player="P"):
    outcome = "success" if etype == "pass" else None
    return MatchEvent(eid, etype, frame, team, player, Point2(0, 0), outcome=outcome)


def frames_for(events, extra=200):
    last = max(e.frame for e in events) + extra
    return [
        # Bare-bones frame stand-ins: segmentation only reads index and time.
        type("F", (), {"frame_index": i, "time": i * 0.1, "metadata": None})()
        for i in range(last + 1)
    ]


class TestSegmentation:
    def make_frames(self, n=400):
        from conftest import make_frame

        return [make_frame([], frame_index=i, time=i * 0.1) for i in range(n)]

    def test_single_opponent_touch_tolerated(self):
        events = [
            ev("1", "pass", 10, "A"),
            ev("2", "pass", 40, "A"),
            ev("3", "interception", 60, "B"),
            ev("4", "recovery", 80, "A"),
            ev("5", "pass", 100, "A"),
        ]
        seqs, drops = segment_attack_sequences(events, self.make_frames())
        assert len(seqs) == 1
        assert seqs[0].team == "A"
        assert seqs[0].event_ids == ("1", "2", "3", "4", "5")
        assert not drops

    def test_two_consecutive_opponent_events_close(self):
        events = [
            ev("1", "pass", 10, "A"),
            ev("2", "pass", 40, "A"),
            ev("3", "pass", 60, "B"),
            ev("4", "pass", 90, "B"),
        ]
        seqs, drops = segment_attack_sequences(events, self.make_frames())
        assert [s.team for s in seqs] == ["A", "B"]
        assert seqs[0].event_ids == ("1", "2")
        assert seqs[0].end_frame == 40
        assert seqs[1].event_ids == ("3", "4")
        assert seqs[1].start_frame == 60  # opens retroactively at the first B event

    def test_set_play_opens_sequence(self):
        events = [
            ev("1", "kickoff", 10, "A"),
            ev("2", "pass", 30, "A"),
            ev("3", "corner", 80, "B"),
            ev("4", "pass", 95, "B"),
        ]
        seqs, _ = segment_attack_sequences(events, self.make_frames())
        assert [s.team for s in seqs] == ["A", "B"]
        assert seqs[0].start_frame == 10
        assert seqs[1].start_frame == 80

    def test_short_sequences_dropped(self):
        events = [
            ev("1", "pass", 10, "A"),  # lone event: zero-length span
            ev("2", "pass", 12, "B"),
            ev("3", "pass", 40, "B"),
        ]
        seqs, drops = segment_attack_sequences(events, self.make_frames())
        assert [s.team for s in seqs] == ["B"]
        assert any("1" in d.event_ids for d in drops)

    def test_missing_frame_drops_sequence(self):
        events = [
            ev("1", "pass", 10, "A"),
            ev("2", "pass", 9999, "A"),  # no such frame
            ev("3", "pass", 40, "A"),
        ]
        with pytest.raises(ValueError):
            # events must be frame-sorted; the missing frame sits beyond the end
            segment_attack_sequences(events, self.make_frames(100))

    def test_missing_frame_drops_sequence_sorted(self):
        events = [
            ev("1", "pass", 10, "A"),
            ev("2", "pass", 50, "A"),
            ev("3", "pass", 60, "A"),
        ]
        frames = [f for f in self.make_frames(200) if f.frame_index != 50]
        seqs, drops = segment_attack_sequences(events, frames)
        assert not seqs
        assert drops and drops[0].reason.startswith("event referenced a missing frame")

    def test_every_pass_covered_exactly_once(self, rng):
        teams = rng.choice(["A", "B"], size=60, p=[0.7, 0.3])
        events = [ev(str(i), "pass", 10 + 15 * i, t) for i, t in enumerate(teams)]
        seqs, drops = segment_attack_sequences(events, self.make_frames(1200))
        seen: list[str] = []
        for s in seqs:
            seen.extend(s.event_ids)
        for d in drops:
            seen.extend(d.event_ids)
        assert sorted(seen) == sorted(str(i) for i in range(60))
        assert len(set(seen)) == 60

    def test_same_team_spans_never_overlap(self, rng):
        teams = rng.choice(["A", "B"], size=80)
        events = [ev(str(i), "pass", 10 + 12 * i, t) for i, t in enumerate(teams)]
        seqs, _ = segment_attack_sequences(events, self.make_frames(1200))
        for team in ("A", "B"):
            spans = sorted(
                (s.start_frame, s.end_frame) for s in seqs if s.team == team
            )
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 < s2

    # Hand-built streams pinned to their full (sequences, drops); frames are
    # 0.1 s apart, so the 1 s floor is 10 frames.
    def test_set_play_after_a_lone_opponent_touch(self):
        events = [
            ev("1", "pass", 10, "A"),
            ev("2", "pass", 40, "A"),
            ev("3", "interception", 50, "B"),
            ev("4", "throw_in", 70, "B"),
            ev("5", "pass", 100, "B"),
        ]
        assert segment_attack_sequences(events, self.make_frames()) == (
            [
                AttackSequence("seq-0001", "A", 10, 40, ("1", "2")),
                AttackSequence("seq-0002", "B", 70, 100, ("4", "5")),
            ],
            [DroppedEvents(("3",), "opponent touches before a set play")],
        )

    def test_trailing_opponent_touches(self):
        events = [ev("1", "pass", 10, "A"), ev("2", "pass", 40, "A"), ev("3", "pass", 60, "B")]
        assert segment_attack_sequences(events, self.make_frames()) == (
            [AttackSequence("seq-0001", "A", 10, 40, ("1", "2"))],
            [DroppedEvents(("3",), "trailing opponent touches at match end")],
        )

    def test_handover_touches_from_different_teams(self):
        # B's lone touch and C's first make two opponent touches in a row; the
        # new sequence belongs to the second touch's team and opens at the first.
        events = [
            ev("1", "pass", 10, "A"),
            ev("2", "pass", 40, "A"),
            ev("3", "interception", 60, "B"),
            ev("4", "pass", 90, "C"),
            ev("5", "pass", 120, "C"),
        ]
        assert segment_attack_sequences(events, self.make_frames()) == (
            [
                AttackSequence("seq-0001", "A", 10, 40, ("1", "2")),
                AttackSequence("seq-0002", "C", 60, 120, ("3", "4", "5")),
            ],
            [],
        )

    def test_missing_frame_inside_an_absorbed_touch(self):
        events = [
            ev("1", "pass", 10, "A"),
            ev("2", "pass", 40, "A"),
            ev("3", "interception", 50, "B"),  # absorbed, but frame 50 is missing
            ev("4", "pass", 70, "A"),
            ev("5", "corner", 150, "B"),
            ev("6", "pass", 190, "B"),
        ]
        frames = [f for f in self.make_frames() if f.frame_index != 50]
        assert segment_attack_sequences(events, frames) == (
            [AttackSequence("seq-0001", "B", 150, 190, ("5", "6"))],
            [DroppedEvents(("1", "2", "3", "4"), "event referenced a missing frame")],
        )

    def test_numbering_continues_after_a_dropped_span(self):
        events = [
            ev("1", "pass", 10, "A"),
            ev("2", "pass", 40, "A"),
            ev("3", "pass", 50, "B"),
            ev("4", "pass", 52, "B"),
            ev("5", "free_kick", 55, "A"),
            ev("6", "pass", 90, "A"),
        ]
        assert segment_attack_sequences(events, self.make_frames()) == (
            [
                AttackSequence("seq-0001", "A", 10, 40, ("1", "2")),
                AttackSequence("seq-0002", "A", 55, 90, ("5", "6")),
            ],
            [DroppedEvents(("3", "4"), "span 0.20s below 1.0s floor")],
        )

    def test_sequence_invariant_start_le_end(self):
        with pytest.raises(ValueError):
            AttackSequence("s", "A", 10, 5, ())
