import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from pitchspace import dominance, features
from pitchspace.dominance import (
    ATTACKING,
    DEFENDING,
    MotionParams,
    directional_space_deltas,
)
from pitchspace.features import (
    FEATURE_VARIABLES,
    RANKING_VARIABLES,
    HolderOnBall,
    OffBallFeatures,
    PassSampleTable,
    assemble_table,
    build_dataset,
    column_names,
    extract_event_features,
    impute_non_finite,
    offball_features,
    onball_features,
    orient_frame,
    passline_interception_time,
    receiver_variables,
    select_top_n,
    EventFeatures,
    Selection,
)
from pitchspace.match_io import FrameMetadata, SchemaError
from pitchspace.pitch import MAX_COORDINATE, MAX_TRACKED_SPEED, PitchSpec, Point2, WeightParams
from pitchspace.synth import SynthConfig, synthesize_match

from conftest import arrival_time, find_player, frame_of, make_frame, player, with_players

PITCH = PitchSpec(grid_cell=1.0)  # coarse grid keeps feature tests quick
MP = MotionParams()
W = WeightParams()


def sampled_passline_time(defender_pos, defender_vel, a, b, mp, samples=10_000):
    """Brute-force oracle: minimize arrival time over sampled segment points."""
    px = defender_pos.x + defender_vel.x * mp.reaction_time
    py = defender_pos.y + defender_vel.y * mp.reaction_time
    ts = np.linspace(0.0, 1.0, samples)
    xs = a.x + ts * (b.x - a.x)
    ys = a.y + ts * (b.y - a.y)
    d = np.hypot(xs - px, ys - py)
    return mp.reaction_time + float(d.min()) / mp.max_speed


class TestPasslineInterception:
    def test_defender_on_segment(self):
        t = passline_interception_time(
            Point2(0.0, 0.0), Point2(0.0, 0.0), Point2(-10.0, 0.0), Point2(10.0, 0.0), MP
        )
        assert t == pytest.approx(0.2)

    def test_perpendicular_defender(self):
        t = passline_interception_time(
            Point2(0.0, 10.0), Point2(0.0, 0.0), Point2(-10.0, 0.0), Point2(10.0, 0.0), MP
        )
        assert t == pytest.approx(0.2 + 10.0 / 7.8, abs=1e-9)

    def test_degenerate_segment(self):
        t = passline_interception_time(
            Point2(3.0, 4.0), Point2(0.0, 0.0), Point2(0.0, 0.0), Point2(0.0, 0.0), MP
        )
        assert t == pytest.approx(0.2 + 5.0 / 7.8)

    def test_matches_sampled_brute_force(self, rng):
        for _ in range(200):
            dpos = Point2(rng.uniform(-50, 50), rng.uniform(-34, 34))
            dvel = Point2(rng.uniform(-5, 5), rng.uniform(-5, 5))
            a = Point2(rng.uniform(-50, 50), rng.uniform(-34, 34))
            b = Point2(rng.uniform(-50, 50), rng.uniform(-34, 34))
            analytic = passline_interception_time(dpos, dvel, a, b, MP)
            sampled = sampled_passline_time(dpos, dvel, a, b, MP)
            assert abs(analytic - sampled) < 1e-3
            assert analytic <= sampled + 1e-12  # projection is the true minimum


def projection_passline_time(pos, vel, a, b, mp):
    """One defender's least arrival time at segment [a, b], found at the
    orthogonal projection of its predicted point and timed by arrival_time."""
    (x, y), (vx, vy), (ax, ay), (bx, by) = pos, vel, a, b
    px = x + vx * mp.reaction_time
    py = y + vy * mp.reaction_time
    sx, sy = bx - ax, by - ay
    denom = sx * sx + sy * sy
    t = 0.0 if denom == 0.0 else min(max(((px - ax) * sx + (py - ay) * sy) / denom, 0.0), 1.0)
    return arrival_time(pos, vel, (ax + t * sx, ay + t * sy), mp)


def oracle_receiver_variables(target, ball, defenders, mp):
    """receiver_variables as minima of per-defender times, (pos, vel) each."""
    dist_ball = math.hypot(ball[0] - target[0], ball[1] - target[1])
    if not defenders:
        return dist_ball, math.inf, math.inf
    return (
        dist_ball,
        min(arrival_time(pos, vel, target, mp) for pos, vel in defenders),
        min(projection_passline_time(pos, vel, ball, target, mp) for pos, vel in defenders),
    )


class TestReceiverVariablesExact:
    """receiver_variables converts the least distance once; the result must be
    the least of the per-defender times, bit for bit."""

    LIMIT_RT = MAX_COORDINATE / MAX_TRACKED_SPEED
    MOTIONS = [
        pytest.param(MP, id="default"),
        pytest.param(MotionParams(reaction_time=0.0, max_speed=1e-3), id="rt_0_slow"),
        pytest.param(MotionParams(reaction_time=1e3, max_speed=13.0), id="rt_1e3"),
        pytest.param(MotionParams(reaction_time=LIMIT_RT, max_speed=7.8), id="rt_limit"),
        pytest.param(MotionParams(max_speed=1.0 / MAX_COORDINATE), id="slowest"),
        pytest.param(MotionParams(max_speed=1e300), id="fastest"),
    ]

    @staticmethod
    def draw(rng, kind):
        """(target, ball, [(pos, vel)]) of one case; 0 and 1 defenders come often."""
        if kind == "lattice":  # whole metres: equal distances and collinear points
            def point():
                return tuple(float(v) for v in rng.integers(-6, 7, 2))
        elif kind == "far":
            def point():
                return tuple(rng.uniform(-MAX_COORDINATE, MAX_COORDINATE, 2).tolist())
        else:
            def point():
                return (rng.uniform(-52.5, 52.5), rng.uniform(-34.0, 34.0))

        def vel():
            if kind == "lattice":
                return tuple(float(v) for v in rng.integers(-2, 3, 2))
            return tuple(rng.uniform(-MAX_TRACKED_SPEED, MAX_TRACKED_SPEED, 2).tolist())

        n = int(rng.choice([0, 1, int(rng.integers(2, 12))]))
        target = point()
        ball = target if kind == "ball_is_target" else point()
        return target, ball, [(point(), vel()) for _ in range(n)]

    @pytest.mark.parametrize("mp", MOTIONS)
    @pytest.mark.parametrize("kind", ["random", "lattice", "ball_is_target", "far"])
    def test_matches_per_defender_minima_bitwise(self, mp, kind):
        rng = np.random.default_rng(36)
        counts = set()
        for _ in range(400):
            target, ball, defenders = self.draw(rng, kind)
            counts.add(min(len(defenders), 2))
            frame = make_frame(
                [player(f"B{i:02d}", DEFENDING, *pos, *v) for i, (pos, v) in enumerate(defenders)]
                + [player("A01", ATTACKING, *target)]
            )
            got = receiver_variables(target, ball, features._defenders(frame, mp), mp)
            want = oracle_receiver_variables(target, ball, defenders, mp)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (target, ball, defenders)
            for pos, v in defenders[:1]:
                one = passline_interception_time(pos, v, ball, target, mp)
                assert one == projection_passline_time(pos, v, ball, target, mp)
        assert counts == {0, 1, 2}


class TestOffballFeatures:
    def test_no_defenders_infinite_times(self):
        frame = make_frame(
            [player("A01", ATTACKING, 0.0, 0.0), player("A02", ATTACKING, -10.0, 5.0)],
            ball_pos=(0.0, 0.0),
        )
        feats = offball_features(frame, "A01", PITCH, MP, W)
        assert len(feats) == 1
        f = feats[0]
        assert f.player_id == "A02"
        assert math.isinf(f.time_to_player) and math.isinf(f.time_to_passline)
        assert f.dist_ball == pytest.approx(math.hypot(10.0, 5.0))

    def test_passer_never_a_candidate(self):
        frame = make_frame(
            [
                player("A01", ATTACKING, 0.0, 0.0),
                player("A02", ATTACKING, -10.0, 0.0),
                player("B01", DEFENDING, 20.0, 0.0),
                player("B02", DEFENDING, 30.0, 0.0),
            ]
        )
        feats = offball_features(frame, "A01", PITCH, MP, W)
        assert [f.player_id for f in feats] == ["A02"]

    def test_missing_passer_errors(self):
        frame = make_frame([player("A02", ATTACKING, -10.0, 0.0)])
        with pytest.raises(ValueError):
            offball_features(frame, "GHOST", PITCH, MP, W)

    def test_offside_candidates_excluded(self):
        frame = make_frame(
            [
                player("A01", ATTACKING, 0.0, 0.0),
                player("A02", ATTACKING, -10.0, 0.0),
                player("A03", ATTACKING, 40.0, 0.0),  # beyond ball and both defenders
                player("B01", DEFENDING, 20.0, 0.0),
                player("B02", DEFENDING, 10.0, 5.0),
            ],
            ball_pos=(0.0, 0.0),
        )
        feats = offball_features(frame, "A01", PITCH, MP, W)
        assert [f.player_id for f in feats] == ["A02"]

    def test_times_against_direct_minimization(self, rng):
        frame = make_frame(
            [
                player("A01", ATTACKING, 0.0, 0.0),
                player("A02", ATTACKING, -15.0, 8.0, vx=1.0),
                player("B01", DEFENDING, 5.0, 5.0, vx=-2.0, vy=1.0),
                player("B02", DEFENDING, -20.0, -10.0, vy=2.0),
            ],
            ball_pos=(0.0, 0.0),
        )
        feats = offball_features(frame, "A01", PITCH, MP, W)
        f = feats[0]
        defenders = [p for p in frame.players if p.team == DEFENDING]
        receiver = find_player(frame, "A02")
        expected_player = min(arrival_time(d.pos, d.vel, receiver.pos, MP) for d in defenders)
        assert f.time_to_player == pytest.approx(expected_player, abs=1e-12)
        expected_line = min(
            sampled_passline_time(d.pos, d.vel, frame.ball.pos, receiver.pos, MP)
            for d in defenders
        )
        assert f.time_to_passline == pytest.approx(expected_line, abs=1e-3)

    def test_passline_bounded_by_receiver_endpoint_time(self, rng):
        # The receiver endpoint lies on the segment, so the minimizing
        # defender's passline time never exceeds their time to the receiver.
        for seed in range(5):
            r = np.random.default_rng(seed)
            players = [player("A01", ATTACKING, 0.0, 0.0)]
            players += [
                player(f"A{i:02d}", ATTACKING, r.uniform(-45, 45), r.uniform(-30, 30))
                for i in range(2, 7)
            ]
            players += [
                player(f"B{i:02d}", DEFENDING, r.uniform(-45, 45), r.uniform(-30, 30),
                       vx=r.uniform(-3, 3), vy=r.uniform(-3, 3))
                for i in range(1, 6)
            ]
            frame = make_frame(players, ball_pos=(0.0, 0.0))
            for f in offball_features(frame, "A01", PITCH, MP, W):
                receiver = find_player(frame, f.player_id)
                defenders = [p for p in frame.players if p.team == DEFENDING]
                per_defender = [
                    (passline_interception_time(d.pos, d.vel, frame.ball.pos, receiver.pos, MP),
                     arrival_time(d.pos, d.vel, receiver.pos, MP))
                    for d in defenders
                ]
                line_time, endpoint_time = min(per_defender)
                assert f.time_to_passline == pytest.approx(line_time, abs=1e-12)
                assert line_time <= endpoint_time + 1e-12


class TestOnballFeatures:
    def _frame(self):
        return make_frame(
            [
                player("A01", ATTACKING, 41.5, 0.0),
                player("A02", ATTACKING, 0.0, 10.0),
                player("B01", DEFENDING, 45.0, 5.0),
                player("B02", DEFENDING, 30.0, 0.0),
            ],
            ball_pos=(41.5, 0.0),
            ball_vel=(3.0, 4.0),
        )

    def test_holder_at_penalty_spot(self):
        out = onball_features(self._frame(), "A01", PITCH, MP, W)
        assert isinstance(out, HolderOnBall) and out.holder_id == "A01"
        assert out.dist_goal == pytest.approx(11.0)
        assert out.angle_goal == 0.0
        defenders = [p for p in self._frame().players if p.team == DEFENDING]
        expected = min(arrival_time(d.pos, d.vel, Point2(41.5, 0.0), MP) for d in defenders)
        assert out.nearest_defender_time == pytest.approx(expected)
        assert len(out.deltas) == 8

    def test_holder_deltas_equal_naive_deltas(self):
        frame = self._frame()
        out = onball_features(frame, "A01", PITCH, MP, W)
        naive = directional_space_deltas(frame, "A01", PITCH, MP, W)
        assert np.array(out.deltas).tobytes() == naive.tobytes()

    def test_offside_holder_errors(self):
        frame = make_frame(
            [
                player("A01", ATTACKING, 40.0, 0.0),
                player("B01", DEFENDING, 45.0, 0.0),
                player("B02", DEFENDING, 30.0, 5.0),
            ],
            ball_pos=(20.0, 0.0),
        )
        with pytest.raises(ValueError):
            onball_features(frame, "A01", PITCH, MP, W)

    def test_holder_alone_has_zero_deltas(self):
        frame = make_frame(
            [player("A01", ATTACKING, 10.0, 0.0), player("B01", DEFENDING, 20.0, 0.0)],
            ball_pos=(10.0, 0.0),
        )
        out = onball_features(frame, "A01", PITCH, MP, W)
        assert out.nearest_defender_time > 0.2
        frame_solo = make_frame([player("A01", ATTACKING, 10.0, 0.0)], ball_pos=(10.0, 0.0))
        with pytest.raises(ValueError):  # holder variant needs a defender
            onball_features(frame_solo, "A01", PITCH, MP, W)


def feat(pid, **kwargs):
    base = dict(fast_space_vel=0.0, variation_space_vel=0.0, dist_ball=0.0,
                time_to_player=1.0, time_to_passline=1.0)
    base.update(kwargs)
    return OffBallFeatures(player_id=pid, **base)


class TestSelectTopN:
    def test_dist_ball_ascending(self):
        feats = [feat(p, dist_ball=d) for p, d in
                 zip("abcde", [12.0, 4.0, 9.0, 20.0, 7.0])]
        assert select_top_n(feats, 3, "dist_ball") == ["b", "e", "c"]

    def test_argmax_for_n1(self):
        feats = [feat(p, fast_space_vel=v) for p, v in zip("abc", [5.0, 9.0, 2.0])]
        assert select_top_n(feats, 1, "fast_space_vel") == ["b"]

    def test_ties_break_by_player_id(self):
        feats = [feat("z", dist_ball=5.0), feat("a", dist_ball=5.0)]
        assert select_top_n(feats, 1, "dist_ball") == ["a"]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            select_top_n([feat("a")], 0, "dist_ball")

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            select_top_n([feat("a")], 1, "variation_space_vel")

    def test_infinite_times_rank_first_by_default(self):
        feats = [feat("a", time_to_player=3.0), feat("b", time_to_player=math.inf),
                 feat("c", time_to_player=5.0)]
        assert select_top_n(feats, 2, "time_to_player") == ["b", "c"]

    def test_monotone_transform_invariance(self, rng):
        feats = [feat(f"p{i}", fast_space_vel=float(v))
                 for i, v in enumerate(rng.uniform(0, 100, 12))]
        base = select_top_n(feats, 5, "fast_space_vel")
        for _ in range(10):
            a, b = rng.uniform(0.1, 3.0), rng.uniform(0.0, 2.0)
            transformed = [
                OffBallFeatures(f.player_id, a * f.fast_space_vel ** 3 + b * f.fast_space_vel,
                                f.variation_space_vel, f.dist_ball, f.time_to_player,
                                f.time_to_passline)
                for f in feats
            ]
            assert select_top_n(transformed, 5, "fast_space_vel") == base

    def test_fewer_candidates_than_n(self):
        feats = [feat("a"), feat("b")]
        assert select_top_n(feats, 5, "dist_ball") == ["a", "b"]


class TestAssembleAndDataset:
    def _event_features(self):
        return [
            EventFeatures("E1", 1, [feat("a", dist_ball=3.0, time_to_player=math.inf),
                                    feat("b", dist_ball=7.0)]),
            EventFeatures("E2", 0, [feat("c", dist_ball=1.0)]),
            EventFeatures("E3", 1, [feat("d", dist_ball=2.0), feat("e", dist_ball=4.0),
                                    feat("f", dist_ball=9.0)]),
        ]

    def test_column_layout(self):
        cols = column_names(2)
        assert cols[:5] == [f"{v}_1" for v in FEATURE_VARIABLES]
        assert cols[5:] == [f"{v}_2" for v in FEATURE_VARIABLES]

    def test_median_imputation_rule(self):
        # column {1, inf, 3} -> median 2, imputed {1, 2, 3}
        table = PassSampleTable(
            event_ids=["a", "b", "c"],
            labels=np.array([1, 0, 1]),
            columns=["x"],
            raw=np.array([[1.0], [math.inf], [3.0]]),
        )
        medians = table.finite_medians()
        assert medians == {"x": 2.0}
        assert list(impute_non_finite(table.raw, table.columns, medians)[:, 0]) == [1.0, 2.0, 3.0]
        assert list(table.imputation_flags[:, 0]) == [False, True, False]

    def test_padding_flags_and_medians(self):
        table = assemble_table(self._event_features(), 3, "dist_ball")
        assert len(table.columns) == 15
        # E2 has one candidate: ranks 2 and 3 fully padded.
        i = table.event_ids.index("E2")
        flags = table.imputation_flags[i]
        assert flags[5:].all()
        medians = table.finite_medians()
        assert np.isfinite(impute_non_finite(table.raw, table.columns, medians)).all()

    def test_all_imputed_column_gets_zero(self):
        # a column of padding and +inf has no median: it is imputed with 0.0
        table = PassSampleTable(
            event_ids=["a", "b"], labels=np.array([1, 0]), columns=["x", "y"],
            raw=np.array([[math.inf, 1.0], [math.nan, 3.0]]),
        )
        assert table.finite_medians() == {"x": 0.0, "y": 2.0}

    def test_selected_ids_padded(self):
        # E2's one candidate fills rank 1; ranks 2 and 3 are NaN padding.
        table = assemble_table(self._event_features(), 3, "dist_ball")
        row = table.raw[table.event_ids.index("E2")]
        assert row[FEATURE_VARIABLES.index("dist_ball")] == 1.0
        assert not np.isnan(row[:5]).any() and np.isnan(row[5:]).all()

    def test_csv_round_trip(self, tmp_path):
        table = assemble_table(self._event_features(), 2, "dist_ball")
        table.to_csv(tmp_path / "f.csv")
        back = PassSampleTable.from_csv(tmp_path / "f.csv")
        assert back.columns == table.columns
        assert np.array_equal(back.labels, table.labels)
        assert np.array_equal(np.isfinite(back.raw), np.isfinite(table.raw))
        finite = np.isfinite(table.raw)
        assert np.array_equal(back.raw[finite], table.raw[finite])

    @pytest.mark.parametrize(
        "edit, located",
        [
            pytest.param(lambda rows: rows.insert(2, ""), "f.csv:3: blank line", id="blank_line"),
            pytest.param(lambda rows: rows.__setitem__(2, rows[2].rsplit(",", 1)[0]),
                         "f.csv:3: 21 fields, the header has 22", id="short_row"),
            pytest.param(lambda rows: rows.__setitem__(3, rows[3] + ",0"),
                         "f.csv:4: 23 fields, the header has 22", id="long_row"),
            pytest.param(lambda rows: rows.__setitem__(1, rows[1].replace(",1,", ",2,", 1)),
                         "f.csv:2: label must be 0 or 1, got '2'", id="non_binary_label"),
            pytest.param(lambda rows: rows.__setitem__(2, rows[2].replace(",1.0,", ",abc,", 1)),
                         "f.csv:3: column 'dist_ball_1': 'abc' is not a number", id="non_numeric"),
            pytest.param(lambda rows: rows.__setitem__(2, rows[2] + "0" * 200_000),
                         "f.csv:3: malformed CSV", id="field_over_csv_limit"),
            pytest.param(lambda rows: rows.__setitem__(0, rows[0].replace("_ball_2", "_ball_1")),
                         r"f.csv:1: repeated column names \['dist_ball_1'\]", id="repeated_column"),
            pytest.param(lambda rows: rows.__setitem__(slice(None), [",".join(r.split(",")[:2])
                                                                     for r in rows]),
                         "f.csv:1: no feature columns", id="no_feature_columns"),
        ],
    )
    def test_csv_errors_are_located(self, tmp_path, edit, located):
        table = assemble_table(self._event_features(), 2, "dist_ball")
        table.to_csv(tmp_path / "f.csv")
        rows = (tmp_path / "f.csv").read_text(encoding="utf-8").splitlines()
        edit(rows)
        (tmp_path / "f.csv").write_text("\r\n".join(rows) + "\r\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=located):
            PassSampleTable.from_csv(tmp_path / "f.csv")


class TestEndToEndDataset:
    def test_build_dataset_on_synthetic_match(self):
        frames, events, gt = synthesize_match(SynthConfig(passes=40), seed=31)
        table, medians = build_dataset([(frames, events)], 3, "dist_ball", PITCH, MP, W)
        assert len(table) == 40
        assert len(table.columns) == 15
        assert np.isfinite(impute_non_finite(table.raw, table.columns, medians)).all()
        # rank-1 dist_ball equals the generator's rule input (nearest receiver)
        db1 = table.raw[:, table.columns.index("dist_ball_1")]
        gen = np.array([gt["rule_features"][eid]["dist_ball"] for eid in table.event_ids])
        assert np.allclose(db1, gen, atol=1e-9)

    def test_label_counts_match_event_file(self):
        frames, events, _ = synthesize_match(SynthConfig(passes=60), seed=32)
        table, _ = build_dataset([(frames, events)], 2, "dist_ball", PITCH, MP, W)
        successes = sum(1 for e in events if e.type == "pass" and e.outcome == "success")
        failures = sum(1 for e in events if e.type == "pass" and e.outcome == "failure")
        assert int(table.labels.sum()) == successes
        assert int((1 - table.labels).sum()) == failures

    def test_relabeling_player_ids_preserves_features(self):
        frames, events, _ = synthesize_match(SynthConfig(passes=10), seed=33)
        base = extract_event_features(frames, events, PITCH, MP, W)

        def rename(pid):  # order-preserving within teams, but A-ids now sort after B-ids
            return "Z" + pid[1:] if pid.startswith("A") else "C" + pid[1:]

        from dataclasses import replace as dreplace

        frames2 = [
            with_players(f, [dreplace(p, player_id=rename(p.player_id)) for p in f.players])
            for f in frames
        ]
        events2 = [
            dreplace(e, player=rename(e.player),
                     receiver=rename(e.receiver) if e.receiver else None)
            for e in events
        ]
        renamed = extract_event_features(frames2, events2, PITCH, MP, W)
        for ef1, ef2 in zip(base, renamed):
            by_id = {f.player_id: f for f in ef2.features}
            for f1 in ef1.features:
                f2 = by_id[rename(f1.player_id)]
                for var in FEATURE_VARIABLES:
                    assert getattr(f1, var) == getattr(f2, var)

    def test_unsynchronized_events_error(self):
        frames, events, _ = synthesize_match(
            SynthConfig(passes=5, frame_offset=33), seed=31
        )
        with pytest.raises(ValueError, match="synchronize"):
            build_dataset([(frames, events)], 3, "dist_ball", PITCH, MP, W)

    def test_mirrored_team_b_features_match_team_a_geometry(self):
        # With B attacking left, orientation mirrors everything; dist_ball is
        # mirror-invariant so the generator's rule inputs still match.
        frames, events, gt = synthesize_match(
            SynthConfig(passes=40, opponent_pass_rate=1.0), seed=8
        )
        table, _ = build_dataset([(frames, events)], 3, "dist_ball", PITCH, MP, W)
        db1 = table.raw[:, table.columns.index("dist_ball_1")]
        gen = np.array([gt["rule_features"][eid]["dist_ball"] for eid in table.event_ids])
        assert np.allclose(db1, gen, atol=1e-9)


def csv_columns(path, table) -> dict[str, list[str]]:
    """The columns of the table as features.csv writes them, by name."""
    table.to_csv(path)
    header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
    return dict(zip(header, zip(*rows)))


class TestMotionRescaling:
    """A predicted point is position + velocity * reaction_time. Halving every
    velocity and doubling motion.reaction_time are both exact in binary, so
    every predicted point keeps its bits, and max_speed enters no distance:
    the dist_ball_*, fast_space_vel_* and variation_space_vel_* columns of
    features.csv keep theirs under either change. The time_to_* columns do
    change (each is reaction_time + d / max_speed), and rounding can make two
    candidates' times tie, which could reorder a ranking by time: so the rows
    are ranked by dist_ball or fast_space_vel. The frames stay in memory, where
    the loader's 13 m/s speed cap cannot touch a velocity."""

    UNTIMED = ("dist_ball_", "fast_space_vel_", "variation_space_vel_")

    @pytest.mark.parametrize("ranking", ["dist_ball", "fast_space_vel"])
    @pytest.mark.parametrize("seed, lattice", [(41, False), (42, False), (43, True)])
    def test_untimed_columns_keep_their_bits(self, tmp_path, seed, lattice, ranking):
        frames, events, _ = synthesize_match(SynthConfig(passes=30, opponent_pass_rate=0.3), seed)
        if lattice:  # whole metres: cells equidistant from two players are common
            frames = [f.with_players(xy=np.round(f.xy)) for f in frames]

        def columns(frames, mp):
            table, _ = build_dataset([(frames, events)], 3, ranking, PITCH, mp, W)
            return csv_columns(tmp_path / "features.csv", table)

        want = columns(frames, MP)
        halved = [
            f.with_players(
                vxy=f.vxy * 0.5,
                ball=replace(f.ball, vel=Point2(f.ball.vel.x * 0.5, f.ball.vel.y * 0.5)),
            )
            for f in frames
        ]
        for got in (
            columns(halved, replace(MP, reaction_time=2 * MP.reaction_time)),
            columns(frames, replace(MP, max_speed=5.5)),
        ):
            assert got.keys() == want.keys()
            for name in want:
                if name.startswith(self.UNTIMED):
                    assert got[name] == want[name], name
            # not vacuous: the motion reached the time columns
            assert any(got[n] != want[n] for n in want if n.startswith("time_to_"))


class TestSelectionAwareExtraction:
    """Under a selection only the kept candidates are probed and returned;
    the tables assembled from them are those of full extraction."""

    @pytest.fixture(scope="class")
    def match(self):
        # empty defences give +inf times, which the tables must carry through
        frames, events, _ = synthesize_match(SynthConfig(passes=40, empty_defense_rate=0.3), seed=34)
        return frames, events

    @pytest.fixture(scope="class")
    def full(self, match):
        return extract_event_features(*match, PITCH, MP, W)

    @staticmethod
    def probe_counts(monkeypatch):
        """Patch the probe kernel; returns (probes, kept candidates) per offball_features call."""
        probes, per_pass = [], []
        real_probe, real_offball = dominance._probe_deltas, features.offball_features

        def probe(*args):
            probes.append(1)
            return real_probe(*args)

        def offball(*args, **kwargs):
            start = len(probes)
            out = real_offball(*args, **kwargs)
            per_pass.append((len(probes) - start, len(out)))
            return out

        monkeypatch.setattr(dominance, "_probe_deltas", probe)
        monkeypatch.setattr(features, "offball_features", offball)
        return per_pass

    @pytest.mark.parametrize("variable", RANKING_VARIABLES)
    def test_table_bytes_match_full_extraction(self, tmp_path, match, full, variable):
        table, medians = build_dataset([match], 3, variable, PITCH, MP, W)
        want = assemble_table(full, 3, variable)
        table.to_csv(tmp_path / "selected.csv")
        want.to_csv(tmp_path / "full.csv")
        assert (tmp_path / "selected.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
        assert medians == want.finite_medians()
        assert np.isinf(want.raw).any()

    def test_selected_features_are_full_features_of_kept_ids(self, match, full):
        selection = Selection(2, ("time_to_passline", "dist_ball"))
        got = extract_event_features(*match, PITCH, MP, W, selection=selection)
        trimmed = 0
        for ef, ef_full in zip(got, full):
            kept = selection.kept_ids(ef_full.features)
            assert ef.features == [f for f in ef_full.features if f.player_id in kept]
            trimmed += len(ef_full.features) - len(ef.features)
        assert trimmed > 0

    @pytest.mark.parametrize("variable", RANKING_VARIABLES)
    def test_default_selection_probes_at_most_n_per_pass(self, monkeypatch, match, full, variable):
        per_pass = self.probe_counts(monkeypatch)
        build_dataset([match], 3, variable, PITCH, MP, W)
        assert len(per_pass) == len(full)
        assert all(probes == kept <= 3 for probes, kept in per_pass)
        assert sum(kept for _, kept in per_pass) < sum(len(ef.features) for ef in full)

    @pytest.mark.parametrize("variable", RANKING_VARIABLES)
    def test_each_candidate_gets_its_values_once(self, monkeypatch, match, full, variable):
        # One receiver_variables call per eligible candidate, before the
        # selection, whatever the ranking reads.
        calls = []
        real = features.receiver_variables

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(features, "receiver_variables", counted)
        build_dataset([match], 3, variable, PITCH, MP, W)
        assert len(calls) == sum(len(ef.features) for ef in full)

    @pytest.mark.parametrize("defenders", [3, 10])
    def test_ranking_values_are_all_finite_or_all_infinite_per_pass(self, defenders):
        # select_top_n's placement of infinite values can then never change a
        # selection: the times are minima over the frame's defenders, the other
        # ranking variables are always finite.
        cfg = SynthConfig(passes=40, defenders=defenders, empty_defense_rate=0.3,
                          opponent_pass_rate=0.3)
        frames, events, _ = synthesize_match(cfg, seed=defenders)
        infinite = set()
        for ef in extract_event_features(frames, events, PITCH, MP, W):
            for var in RANKING_VARIABLES:
                kinds = {math.isinf(getattr(f, var)) for f in ef.features}
                assert len(kinds) == 1, (ef.event_id, var)
                if kinds == {True}:
                    infinite.add(var)
        assert infinite == {"time_to_player", "time_to_passline"}

    def test_selection_is_checked_before_extraction(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            Selection(0, ("dist_ball",))
        with pytest.raises(ValueError, match="unknown ranking variable"):
            Selection(3, ("dist_goal",))


class TestOrientation:
    def test_marker_beats_heuristic(self):
        frame = make_frame(
            [player("A01", "A", 10.0, 0.0), player("B01", "B", -10.0, 0.0)],
        )
        frame = frame_of(
            frame.players, frame.ball, frame.frame_index, frame.time,
            type(frame.metadata)(attacks_right_team="B"),
        )
        oriented = orient_frame(frame, "A")
        # A attacks left per the marker, so positions mirror.
        assert find_player(oriented, "A01").pos.x == -10.0
        assert find_player(oriented, "A01").team == ATTACKING
        assert find_player(oriented, "B01").team == DEFENDING

    def test_heuristic_infers_from_mean_x(self, caplog):
        frame = make_frame(
            [
                player("A01", "A", -30.0, 0.0),
                player("A02", "A", -20.0, 5.0),
                player("B01", "B", 25.0, 0.0),
                player("B02", "B", 35.0, -5.0),
            ]
        )
        with caplog.at_level("WARNING"):
            oriented = orient_frame(frame, "A")
        assert find_player(oriented, "A01").pos.x == -30.0  # A already attacks right
        assert any("inferred" in r.message for r in caplog.records)


def marked_frame(players, attacks_right_team, ball_pos=(0.0, 0.0), ball_vel=(0.0, 0.0)):
    """make_frame with an attack-direction marker naming the team that attacks right."""
    frame = make_frame(players, ball_pos, ball_vel)
    return frame_of(frame.players, frame.ball, metadata=FrameMetadata(attacks_right_team=attacks_right_team))


class TestOrientFrameMirror:
    """Team A attacks left per the marker, so orient_frame mirrors x."""

    def test_attacking_right_is_identity(self):
        frame = marked_frame([player("A1", "A", 10.0, -3.0)], attacks_right_team="A")
        out = orient_frame(frame, "A")
        assert out.xy is frame.xy and out.vxy is frame.vxy and out.ball is frame.ball

    def test_attacking_left_mirrors_x(self):
        frame = marked_frame(
            [player("A1", "A", 10.0, -3.0, vx=2.0, vy=1.0)], "B", ball_pos=(5.0, 2.0),
            ball_vel=(1.0, -1.0),
        )
        out = orient_frame(frame, "A")
        p = out.players[0]
        assert (p.pos.x, p.pos.y) == (-10.0, -3.0)
        assert (p.vel.x, p.vel.y) == (-2.0, 1.0)
        assert (out.ball.pos.x, out.ball.pos.y) == (-5.0, 2.0)
        assert (out.ball.vel.x, out.ball.vel.y) == (-1.0, -1.0)
        assert p.team == ATTACKING

    def test_involution(self):
        frame = marked_frame(
            [
                player("A1", "A", 10.0, -3.0, vx=2.0, vy=1.0),
                player("B1", "B", -7.5, 4.0, vx=-1.0, vy=0.5),
                player("B2", "B", 60.0, 40.0),  # off the pitch
            ],
            "B",
        )
        out = orient_frame(frame, "A")
        assert (out.xy * (-1.0, 1.0)).tobytes() == frame.xy.tobytes()
        assert (out.vxy * (-1.0, 1.0)).tobytes() == frame.vxy.tobytes()

    def test_out_of_bounds_positions_pass_through_mirrored(self):
        frame = marked_frame([player("A1", "A", 60.0, 0.0)], "B")
        out = orient_frame(frame, "A")
        assert out.players[0].pos.x == -60.0

    def test_preserves_inter_player_distances(self, rng):
        players = [
            player(f"P{i}", "A", rng.uniform(-50, 50), rng.uniform(-30, 30))
            for i in range(8)
        ]
        frame = marked_frame(players, "B")
        out = orient_frame(frame, "A")
        for i in range(8):
            for j in range(i + 1, 8):
                d0 = math.dist(frame.players[i].pos, frame.players[j].pos)
                d1 = math.dist(out.players[i].pos, out.players[j].pos)
                assert d0 == d1
