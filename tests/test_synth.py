import json
import math

import numpy as np
import pytest

from pitchspace.dominance import MotionParams, offside_positions
from pitchspace.features import extract_event_features, orient_frame
from pitchspace.match_io import detect_kickoff_frame, load_match, save_match
from pitchspace.pitch import PitchSpec, WeightParams
from pitchspace.synth import RULE_FEATURES, SynthConfig, _rule_margin, synthesize_match


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestConfig:
    def test_time_rule_with_empty_defense_is_infeasible(self):
        with pytest.raises(ValueError):
            SynthConfig(defenders=0, empty_defense_rate=0.0,
                        rule_coeffs={"time_to_player": -0.5})
        with pytest.raises(ValueError):
            SynthConfig(empty_defense_rate=0.2, rule_coeffs={"time_to_passline": -0.5})

    def test_unknown_rule_feature_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(rule_coeffs={"shoe_size": 1.0})

    def test_dist_rule_with_empty_defense_ok(self):
        SynthConfig(defenders=0, rule_coeffs={"dist_ball": -0.2})

    def test_rule_margin_adds_left_to_right(self):
        # Left to right, 1.0 is lost against 1e16 and the sum is 0.0; the
        # exact (and, from Python 3.12, the builtin sum()) total is 1.0.
        config = SynthConfig(
            rule_intercept=0.5,
            rule_coeffs=dict(zip(RULE_FEATURES, (1.0, 1.0, -1.0))),
            empty_defense_rate=0.0,
        )
        feats = dict(zip(RULE_FEATURES, (1e16, 1.0, 1e16)))
        terms = [c * feats[k] for k, c in config.rule_coeffs.items()]
        assert math.fsum(terms) == 1.0
        assert _rule_margin(config, feats) == 0.5


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SynthConfig(passes=40)
        for run in ("a", "b"):
            frames, events, gt = synthesize_match(cfg, seed=7)
            save_match(frames, events, tmp_path / f"t{run}.jsonl", tmp_path / f"e{run}.jsonl")
            (tmp_path / f"g{run}.json").write_text(
                json.dumps(gt, sort_keys=True), encoding="utf-8"
            )
        assert (tmp_path / "ta.jsonl").read_bytes() == (tmp_path / "tb.jsonl").read_bytes()
        assert (tmp_path / "ea.jsonl").read_bytes() == (tmp_path / "eb.jsonl").read_bytes()
        assert (tmp_path / "ga.json").read_bytes() == (tmp_path / "gb.json").read_bytes()

    def test_different_seeds_differ(self):
        cfg = SynthConfig(passes=10)
        _, e1, _ = synthesize_match(cfg, seed=1)
        _, e2, _ = synthesize_match(cfg, seed=2)
        assert [e.outcome for e in e1] != [e.outcome for e in e2] or (
            [e.pos.x for e in e1] != [e.pos.x for e in e2]
        )


class TestGroundTruth:
    def test_empirical_rate_matches_analytic_mean(self):
        # sigma(2 - 0.2*dist_ball): labels are draws from the hidden rule, so
        # the empirical rate must sit near the mean probability of the
        # generated dist_ball distribution.
        cfg = SynthConfig(passes=2000)
        _, events, gt = synthesize_match(cfg, seed=11)
        labels = np.array([e.label for e in _pass_view(events)])
        analytic = np.mean(
            [sigmoid(2.0 - 0.2 * f["dist_ball"]) for f in gt["rule_features"].values()]
        )
        assert abs(labels.mean() - analytic) <= 0.03

    def test_zero_defenders_gives_infinite_times(self):
        cfg = SynthConfig(defenders=0, passes=30, empty_defense_rate=0.0)
        _, events, gt = synthesize_match(cfg, seed=3)
        for feats in gt["rule_features"].values():
            assert math.isinf(feats["time_to_player"])
            assert math.isinf(feats["time_to_passline"])

    def test_default_config_spans_finite_and_infinite_times(self):
        frames, events, gt = synthesize_match(SynthConfig(passes=300), seed=5)
        times = [f["time_to_player"] for f in gt["rule_features"].values()]
        assert any(math.isinf(t) for t in times)
        assert any(math.isfinite(t) for t in times)

    def test_probabilities_cover_every_pass(self):
        _, events, gt = synthesize_match(SynthConfig(passes=25), seed=9)
        pass_ids = {e.event_id for e in events if e.type == "pass"}
        assert set(gt["events"]) == pass_ids
        assert all(0.0 <= p <= 1.0 for p in gt["events"].values())

    def test_steep_rule_gives_probability_zero(self):
        # exp(-margin) overflows below a margin of about -709.8, where the
        # probability 1 / (1 + inf) is 0.0
        cfg = SynthConfig(passes=20, rule_coeffs={"dist_ball": -1000.0})
        _, events, gt = synthesize_match(cfg, seed=4)
        margins = {eid: _rule_margin(cfg, f) for eid, f in gt["rule_features"].items()}
        assert any(m < -710.0 for m in margins.values())
        for eid, m in margins.items():
            if m < -710.0:
                assert gt["events"][eid] == 0.0
            elif m > -700.0:
                assert gt["events"][eid] == sigmoid(m)
        assert {e.outcome for e in _pass_view(events)} == {"failure"}

    def test_non_finite_margin_is_refused(self):
        # the two terms overflow to +inf and -inf, and their sum is nan
        cfg = SynthConfig(passes=5, empty_defense_rate=0.0,
                          rule_coeffs={"dist_ball": 1e308, "time_to_player": -1e308})
        with pytest.raises(ValueError, match=r"^pass E\d{4}: the planted rule's margin is nan"):
            synthesize_match(cfg, seed=4)

    def test_class_imbalance_replicable(self):
        # The published corpus ratio is ~79/21 success/failure; a config must
        # be able to land near it.
        cfg = SynthConfig(passes=4000, rule_intercept=3.2,
                          rule_coeffs={"dist_ball": -0.105})
        _, events, _ = synthesize_match(cfg, seed=13)
        rate = np.mean([e.label for e in _pass_view(events)])
        assert abs(rate - 0.79) <= 0.03


class TestKickoffTrace:
    def test_detected_kickoff_matches_plant(self):
        frames, events, gt = synthesize_match(SynthConfig(passes=5), seed=21)
        hint = events[0].frame
        assert detect_kickoff_frame(frames, hint) == gt["kickoff_impulse_frame"] - 4

    def test_loaded_match_detects_identically(self, tmp_path):
        frames, events, gt = synthesize_match(SynthConfig(passes=5), seed=22)
        save_match(frames, events, tmp_path / "t.jsonl", tmp_path / "e.jsonl")
        f2, e2 = load_match(tmp_path / "t.jsonl", tmp_path / "e.jsonl")
        assert detect_kickoff_frame(f2, e2[0].frame) == gt["kickoff_impulse_frame"] - 4


class TestOpponentPasses:
    def test_team_b_passes_emitted_mirrored(self):
        cfg = SynthConfig(passes=200, opponent_pass_rate=0.5)
        frames, events, gt = synthesize_match(cfg, seed=17)
        passes = _pass_view(events)
        teams = {e.team for e in passes}
        assert teams == {"A", "B"}
        # attacks_right marker is team A everywhere
        assert all(f.metadata.attacks_right_team == "A" for f in frames)


class TestPlantedEqualsExtracted:
    @pytest.mark.parametrize("defenders", [1, 3, 10])
    def test_rule_features_are_the_extracted_receiver_values(self, defenders):
        # The distance and both times do not depend on the grid, so a coarse
        # one keeps the full extraction quick.
        pitch, mp, w = PitchSpec(grid_cell=5.0), MotionParams(), WeightParams()
        config = SynthConfig(
            passes=200, defenders=defenders, opponent_pass_rate=0.3, empty_defense_rate=0.3
        )
        for seed in (7, 2024, 3):
            frames, events, gt = synthesize_match(config, seed)
            passes = _pass_view(events)
            extracted = extract_event_features(frames, passes, pitch, mp, w)
            by_index = {f.frame_index: f for f in frames}
            for ev, ef in zip(passes, extracted):
                frame = orient_frame(by_index[ev.frame], ev.team)
                assert ev.receiver not in offside_positions(frame), ev.event_id
                f = next(f for f in ef.features if f.player_id == ev.receiver)
                planted = gt["rule_features"][ev.event_id]
                assert [planted[k] for k in RULE_FEATURES] == [getattr(f, k) for k in RULE_FEATURES]


def _pass_view(events):
    return [e for e in events if e.type == "pass"]
