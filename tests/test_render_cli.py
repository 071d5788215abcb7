import csv
import gc
import importlib
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest

import pitchspace
from pitchspace import cli, config as cfgmod, explain, render_svg
from pitchspace.cli import cli_dispatch
from pitchspace.config import (
    ConfigError,
    RunConfig,
    parse_config,
    parse_rule,
)
from pitchspace.dominance import (
    ATTACKING,
    DEFENDING,
    MotionParams,
    compute_dominance_grid,
    offside_positions,
    space_scores,
)
from pitchspace.features import RANKING_VARIABLES, PassSampleTable, orient_frame
from pitchspace.gbdt import GbdtHyperParams, GbdtModel, Tree, load_model, save_model, train_gbdt
from pitchspace.pitch import PitchSpec, WeightParams
from pitchspace.render_svg import RenderOptions, render_animation_svg, render_frame_svg
from pitchspace.synth import SynthConfig, synthesize_match

from conftest import make_frame, player
from test_explain import chain_tree, full_tree

PITCH = PitchSpec(grid_cell=2.0)
MP = MotionParams()
W = WeightParams()


def full_frame(offside_attacker=False):
    players = []
    for i in range(11):
        x = 30.0 if (offside_attacker and i == 10) else -30.0 + 5.0 * i
        players.append(player(f"A{i:02d}", ATTACKING, x, -20.0 + 4.0 * i))
    for i in range(11):
        players.append(player(f"B{i:02d}", DEFENDING, 5.0 + 2.0 * i, 20.0 - 4.0 * i))
    return make_frame(players, ball_pos=(0.0, 0.0))


def render(frame, opts=None):
    excluded = offside_positions(frame)
    field = compute_dominance_grid(frame, PITCH, MP, excluded)
    scores = space_scores(field, frame, W)
    return render_frame_svg(frame, scores, field, opts or RenderOptions())


def render_per_cell(frame, scores, field, opts):
    """Reference for the dominance regions and boundaries of `render_frame_svg`.

    Visits every cell of the owner grid: a row run ends where a cell's owner
    differs from the run's first cell, and a boundary segment sits between
    every pair of neighbours with different owners. The lines before the
    regions and from the pitch markings on are taken from `render_frame_svg`,
    so the whole documents compare equal only if the run and segment text,
    and its place in the document, match.
    """
    doc = render_frame_svg(frame, scores, field, opts).splitlines()
    head = doc[: doc.index('<g class="regions" opacity="0.6">') + 1]
    tail = doc[next(i for i, line in enumerate(doc) if 'stroke="#e8e8e8"' in line):]
    teams = {p.player_id: p.team for p in frame.players}
    pitch = field.pitch
    lo, hi = render_svg._score_range(scores, opts)
    scale = render_svg.SCALE

    def fx(x):
        return f"{render_svg.MARGIN + (x + pitch.half_length) * scale:.2f}"

    def fy(y):
        return f"{render_svg.MARGIN + (pitch.half_width - y) * scale:.2f}"

    xs, ys = pitch.cell_centers()
    cell = pitch.grid_cell
    colors = {}
    for pid, entry in scores.entries.items():
        base = render_svg.DEFEND_RGB if teams.get(pid) == DEFENDING else render_svg.ATTACK_RGB
        colors[pid] = render_svg._mix(base, (entry.score - lo) / (hi - lo))
    body = []
    for iy in range(field.owner.shape[0]):
        row = field.owner[iy]
        start = 0
        for ix in range(1, len(row) + 1):
            if ix == len(row) or row[ix] != row[start]:
                pid = field.player_ids[int(row[start])]
                x0 = xs[start] - cell / 2
                y0 = ys[iy] + cell / 2
                body.append(
                    f'<rect x="{fx(x0)}" y="{fy(y0)}" '
                    f'width="{(ix - start) * cell * scale:.2f}" height="{cell * scale:.2f}" '
                    f'fill="{colors[pid]}"/>'
                )
                start = ix
    body.append("</g>")
    if opts.show_voronoi_boundaries:
        segs = []
        ow = field.owner
        for iy in range(ow.shape[0]):
            for ix in range(ow.shape[1] - 1):
                if ow[iy, ix] != ow[iy, ix + 1]:
                    x = xs[ix] + cell / 2
                    segs.append(
                        f"M{fx(x)} {fy(ys[iy] - cell / 2)} L{fx(x)} {fy(ys[iy] + cell / 2)}"
                    )
        for iy in range(ow.shape[0] - 1):
            for ix in range(ow.shape[1]):
                if ow[iy, ix] != ow[iy + 1, ix]:
                    y = ys[iy] + cell / 2
                    segs.append(
                        f"M{fx(xs[ix] - cell / 2)} {fy(y)} L{fx(xs[ix] + cell / 2)} {fy(y)}"
                    )
        body.append(
            f'<path class="boundaries" d="{" ".join(segs)}" stroke="#ffffff" '
            'stroke-width="0.8" fill="none" opacity="0.7"/>'
        )
    return "\n".join(head + body + tail) + "\n"


def synth_pass_frames():
    """The first pass frame of each team of a small synthetic match, oriented
    to the passing team (so one of them is mirrored)."""
    frames, events, _ = synthesize_match(
        SynthConfig(passes=8, kickoff_frames=12, opponent_pass_rate=0.5), seed=41
    )
    by_index = {f.frame_index: f for f in frames}
    first = {}
    for e in events:
        if e.type == "pass":
            first.setdefault(e.team, orient_frame(by_index[e.frame], e.team))
    return [first[team] for team in sorted(first)]


ORACLE_FRAMES = {
    "full": lambda: [full_frame()],
    "offside": lambda: [full_frame(offside_attacker=True)],
    "one_eligible": lambda: [make_frame([player("A00", ATTACKING, -10.0, -5.0),
                                         player("A01", ATTACKING, 30.0, 5.0)])],
    "synth": synth_pass_frames,
}


class TestRenderFrame:
    def test_23_glyph_groups(self):
        doc = render(full_frame())
        assert doc.count('class="glyph player"') == 22
        assert doc.count('class="glyph ball"') == 1

    def test_byte_identical_rerender(self):
        frame = full_frame()
        assert render(frame) == render(frame)

    def test_offside_player_hollow_without_score(self):
        frame = full_frame(offside_attacker=True)
        assert offside_positions(frame) == {"A10"}
        doc = render(frame)
        assert doc.count('class="score"') == 21
        assert 'stroke-dasharray' in doc

    def test_well_formed_xml(self):
        doc = render(full_frame(offside_attacker=True),
                     RenderOptions(show_voronoi_boundaries=True))
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")

    def test_boundaries_toggle(self):
        frame = full_frame()
        plain = render(frame, RenderOptions(show_voronoi_boundaries=False))
        lines = render(frame, RenderOptions(show_voronoi_boundaries=True))
        assert 'class="boundaries"' not in plain
        assert 'class="boundaries"' in lines

    def test_scores_toggle(self):
        frame = full_frame()
        no_scores = render(frame, RenderOptions(show_scores=False))
        assert 'class="score"' not in no_scores

    def test_colormap_range_validated(self):
        with pytest.raises(ValueError):
            RenderOptions(score_min=5.0, score_max=5.0)

    def test_role_labels_required(self):
        frame = make_frame([player("A1", "home", 0.0, 0.0)])
        field = compute_dominance_grid(frame, PITCH, MP)
        scores = space_scores(field, frame, W)
        with pytest.raises(ValueError):
            render_frame_svg(frame, scores, field, RenderOptions())

    @pytest.mark.parametrize("cell", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("kind", sorted(ORACLE_FRAMES))
    @pytest.mark.parametrize(
        "opts",
        [
            pytest.param(RenderOptions(), id="plain"),
            pytest.param(RenderOptions(show_voronoi_boundaries=True), id="boundaries"),
            pytest.param(RenderOptions(show_scores=False), id="no_scores"),
            pytest.param(RenderOptions(show_voronoi_boundaries=True, show_scores=False),
                         id="boundaries_no_scores"),
            pytest.param(RenderOptions(show_voronoi_boundaries=True, score_min=50.0,
                                       score_max=400.0), id="colormap_range"),
        ],
    )
    def test_regions_match_per_cell_oracle(self, cell, kind, opts):
        pitch = PitchSpec(grid_cell=cell)
        for frame in ORACLE_FRAMES[kind]():
            field = compute_dominance_grid(frame, pitch, MP, offside_positions(frame))
            scores = space_scores(field, frame, W)
            if kind == "one_eligible":
                assert field.player_ids == ["A00"]  # A01 is offside: one run per row
            doc = render_frame_svg(frame, scores, field, opts)
            ref = render_per_cell(frame, scores, field, opts)
            # Line lists with their line ends: byte equality, reported by line.
            assert doc.splitlines(True) == ref.splitlines(True)

    def test_interleaved_pitches_keep_their_own_labels(self):
        # Cell-edge labels are cached per pitch; a non-divisible pitch is
        # rendered in turn with the default one.
        opts = RenderOptions(show_voronoi_boundaries=True)
        frame = full_frame()
        for pitch in [PitchSpec(), PitchSpec(105.3, 68.1, 0.7)] * 2:
            field = compute_dominance_grid(frame, pitch, MP, offside_positions(frame))
            scores = space_scores(field, frame, W)
            doc = render_frame_svg(frame, scores, field, opts)
            ref = render_per_cell(frame, scores, field, opts)
            assert doc.splitlines(True) == ref.splitlines(True)
            assert all(type(seq) is tuple for seq in render_svg._grid_labels(pitch)[:5])

    @pytest.mark.parametrize("pid", ['A"0', "A&0", "A<0", "A>0", "A'0", "&amp;<\"'>"])
    def test_quote_in_player_id_well_formed(self, pid):
        players = list(full_frame().players)
        players[0] = player(pid, ATTACKING, players[0].pos.x, players[0].pos.y)
        doc = render(make_frame(players))
        root = ET.fromstring(doc)
        ids = [g.get("id") for g in root.iter("{http://www.w3.org/2000/svg}g")]
        assert "p-" + pid in ids and "p-A01" in ids
        # the attribute text is the stdlib escape of the id, byte for byte
        glyph_ids = re.findall(r'<g class="glyph player" id="([^"]*)">', doc)
        assert "p-" + escape(pid, {'"': "&quot;"}) in glyph_ids

    def test_animation_well_formed(self):
        frame = full_frame()
        docs = [render(frame), render(frame)]
        anim = render_animation_svg(docs, frame_seconds=0.2)
        ET.fromstring(anim)
        assert anim.count("<set ") == 2


# every key the config accepts
CONFIG_KEYS = list(cfgmod._KEYS)

# keys of settings that were removed: every value of them is an unknown key
REMOVED_CONFIG_KEYS = [
    "feature.infinite_rank",
    "feature.fast_space_vel",
    "synth.receiver_mode",
    "paths.tracking",
    "paths.events",
]


class TestConfig:
    def test_empty_config_parses_to_defaults(self):
        cfg = parse_config("")
        assert cfg.pitch == PitchSpec()
        assert cfg.feature_n == 3
        assert cfg.ranking_variable == "dist_ball"
        assert len(cfg.grid) == 12
        assert cfg == RunConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config("pitch.lenght = 105\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("cv.k = 5\ncv.k = 3\n")

    def test_grid_override(self):
        cfg = parse_config("model.max_depth = 4\nmodel.learning_rate = 0.2\n"
                           "model.n_trees = 30\n")
        assert len(cfg.grid) == 1
        assert cfg.grid[0].max_depth == 4

    @pytest.mark.parametrize("value", ["22", "1000000000000"])
    def test_feature_n_above_21_is_config_error(self, value):
        # ranks past the 21 other players of a pass would be columns of padding only
        assert parse_config("feature.n = 21\n").feature_n == 21
        message = "line 1: feature.n: feature_n must be in [1, 21]"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(f"feature.n = {value}\n")

    def test_rule_parsing(self):
        intercept, coeffs = parse_rule("2.0 - 0.2*dist_ball + 0.1*time_to_player")
        assert intercept == 2.0
        assert coeffs == {"dist_ball": -0.2, "time_to_player": 0.1}

    def test_rule_unknown_feature(self):
        with pytest.raises(ConfigError):
            parse_rule("1.0 + 2.0*banana")

    def test_bad_value_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config("cv.k = banana\n")

    @pytest.mark.parametrize("key", ["paths.out", "paths.matches"])
    def test_unread_path_keys_rejected(self, key):
        # --out and --matches come only from the command line
        with pytest.raises(ConfigError, match=f"unknown config keys: \\['{key}'\\]"):
            parse_config(f"{key} = somewhere\n")

    def test_readme_config_table_matches_keys(self):
        # the first column of each row of README's Configuration table names
        # keys (`pitch.length`) or families (`synth.*`)
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        names = [n for row in rows for n in re.findall(r"`([\w.*]+)`", row.split("|")[1])]
        assert names
        keys = set(cfgmod._KEYS)
        for name in names:
            if name.endswith(".*"):
                assert any(k.startswith(name[:-1]) for k in keys), name
            else:
                assert name in keys, name
        assert {k.split(".")[0] for k in keys} == {n.split(".")[0] for n in names}

    def test_readme_library_surface_names_exist(self):
        # README's Library surface names every module as `pitchspace.<module>`,
        # and each `<module>.<name>` it cites (a call's arguments aside) exists
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library surface", 1)[1].split("\n## ", 1)[0]
        cited = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", section)
        modules = {m.name for m in pkgutil.iter_modules(pitchspace.__path__)}
        named = {c.split(".")[1] for c in cited if c.startswith("pitchspace.")}
        assert named == modules
        attributes = [c for c in cited if c.split(".")[0] in modules]
        assert len(attributes) >= 10
        for c in attributes:
            obj = importlib.import_module(f"pitchspace.{c.split('.')[0]}")
            for name in c.split(".")[1:]:
                assert hasattr(obj, name), c
                obj = getattr(obj, name)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "2.7", "-1", "0", "x", ""])
    @pytest.mark.parametrize("key", CONFIG_KEYS + REMOVED_CONFIG_KEYS)
    def test_any_value_loads_or_is_config_error(self, key, value):
        # A value either loads or fails as a ConfigError naming its line and
        # key; no other exception may escape the config boundary.
        text = f"# leading comment\n{key} = {value}\n"
        if key in REMOVED_CONFIG_KEYS:
            with pytest.raises(ConfigError, match=re.escape(f"unknown config keys: ['{key}']")):
                parse_config(text)
            return
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            assert f"line 2: {key}" in str(exc)
        else:
            assert isinstance(cfg, RunConfig)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic match plus config, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(
        "pitch.grid_cell = 2.0\n"
        "synth.passes = 60\n"
        "synth.kickoff_frames = 60\n"
        "model.max_depth = 3\nmodel.learning_rate = 0.2\nmodel.n_trees = 25\n"
        "cv.k = 3\n",
        encoding="utf-8",
    )
    rc = cli_dispatch(["synth", "--config", str(cfg), "--seed", "7",
                       "--out", str(root / "match")])
    assert rc == 0
    return root, cfg


@pytest.fixture(scope="module")
def trained(workspace):
    """features.csv and model.json from the workspace match."""
    root, cfg = workspace
    m = root / "match"
    assert cli_dispatch(["features", "--config", str(cfg),
                         "--tracking", str(m / "tracking.jsonl"),
                         "--events", str(m / "events.jsonl"),
                         "--out", str(root / "trained")]) == 0
    assert cli_dispatch(["train", "--config", str(cfg),
                         "--features", str(root / "trained" / "features.csv"),
                         "--out", str(root / "trained")]) == 0
    return root / "trained"


def _match_args(m):
    return ["--tracking", str(m / "tracking.jsonl"), "--events", str(m / "events.jsonl")]


def _model_args(t):
    return ["--model", str(t / "model.json"), "--features", str(t / "features.csv")]


class TestManifest:
    @pytest.mark.parametrize(
        "command, args",
        [
            pytest.param("synth", lambda m, t: ["--seed", "3"], id="synth"),
            pytest.param("sync", lambda m, t: _match_args(m), id="sync"),
            pytest.param("segment", lambda m, t: _match_args(m), id="segment"),
            pytest.param("features", lambda m, t: _match_args(m), id="features"),
            pytest.param("train", lambda m, t: ["--features", str(t / "features.csv")],
                         id="train"),
            pytest.param("eval", lambda m, t: _model_args(t), id="eval"),
            pytest.param("explain", lambda m, t: _model_args(t), id="explain"),
            pytest.param("explain", lambda m, t: _model_args(t) + ["--per-row"],
                         id="explain_per_row"),
            pytest.param("compare-rankings", lambda m, t: _match_args(m) + ["--n", "1"],
                         id="compare_rankings"),
            pytest.param("render", lambda m, t: _match_args(m) + ["--frames", "111:121"],
                         id="render"),
            pytest.param("render",
                         lambda m, t: _match_args(m) + ["--frames", "111:121", "--animate"],
                         id="render_animate"),
        ],
    )
    def test_manifest_lists_every_output(self, workspace, trained, tmp_path, command, args):
        root, cfg = workspace
        out = tmp_path / "out"
        rc = cli_dispatch([command, "--config", str(cfg), *args(root / "match", trained),
                           "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == command
        created = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["outputs"] == created

    def test_eval_without_out_writes_nothing(self, trained, tmp_path, monkeypatch):
        before = sorted(trained.iterdir())
        monkeypatch.chdir(tmp_path)
        assert cli_dispatch(["eval", *_model_args(trained)]) == 0
        assert list(tmp_path.iterdir()) == []
        assert sorted(trained.iterdir()) == before


class TestCli:
    def test_synth_outputs_and_manifest(self, workspace):
        root, cfg = workspace
        out = root / "match"
        assert (out / "tracking.jsonl").exists()
        assert (out / "events.jsonl").exists()
        assert (out / "ground_truth.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 7
        assert set(manifest["inputs"]) == {"tracking.jsonl", "events.jsonl"}

    def test_features_train_eval_explain_pipeline(self, workspace, capsys):
        root, cfg = workspace
        m = root / "match"
        input_bytes = {
            p.name: p.read_bytes() for p in (m / "tracking.jsonl", m / "events.jsonl")
        }
        rc = cli_dispatch(["features", "--config", str(cfg),
                           "--tracking", str(m / "tracking.jsonl"),
                           "--events", str(m / "events.jsonl"),
                           "--out", str(root / "feat")])
        assert rc == 0
        # no subcommand mutates its inputs
        for p in (m / "tracking.jsonl", m / "events.jsonl"):
            assert p.read_bytes() == input_bytes[p.name]
        rc = cli_dispatch(["train", "--config", str(cfg),
                           "--features", str(root / "feat" / "features.csv"),
                           "--out", str(root / "model")])
        assert rc == 0
        rc = cli_dispatch(["eval", "--config", str(cfg),
                           "--model", str(root / "model" / "model.json"),
                           "--features", str(root / "feat" / "features.csv"),
                           "--out", str(root / "eval")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "n=3" in out
        metrics = json.loads((root / "eval" / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        rc = cli_dispatch(["explain", "--config", str(cfg),
                           "--model", str(root / "model" / "model.json"),
                           "--features", str(root / "feat" / "features.csv"),
                           "--per-row", "--out", str(root / "explain")])
        assert rc == 0
        assert (root / "explain" / "shap_summary.csv").exists()
        assert (root / "explain" / "attributions.csv").exists()

    def test_explain_per_row_attributes_once(self, tmp_path, monkeypatch):
        # One shap_values call feeds both files, with the bytes that a
        # separate shap_values pass over the same table gives.
        rng = np.random.default_rng(3)
        X = rng.normal(0.0, 1.0, (60, 4))
        y = (X[:, 0] + rng.normal(0.0, 0.5, 60) > 0).astype(np.int64)
        X[rng.random(60) < 0.2, 1] = np.inf
        PassSampleTable(
            event_ids=[f"E{i}" for i in range(60)], labels=y,
            columns=["dist_ball", "space", "speed", "angle"], raw=X,
        ).to_csv(tmp_path / "features.csv")
        table = PassSampleTable.from_csv(tmp_path / "features.csv")
        save_model(train_gbdt(table, GbdtHyperParams(n_trees=8)), tmp_path / "model.json")
        model = load_model(tmp_path / "model.json")
        calls = []
        shap_values = explain.shap_values
        monkeypatch.setattr(
            explain, "shap_values", lambda *a: calls.append(len(a[1])) or shap_values(*a)
        )
        rc = cli_dispatch(["explain", "--model", str(tmp_path / "model.json"),
                           "--features", str(tmp_path / "features.csv"),
                           "--per-row", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert calls == [60]
        monkeypatch.undo()

        phi, base = explain.shap_values(model, table.raw)
        explain.ImportanceSummary.from_phi(model.feature_names, phi).to_csv(tmp_path / "summary.csv")
        summary = (tmp_path / "summary.csv").read_bytes()
        assert (tmp_path / "out" / "shap_summary.csv").read_bytes() == summary
        margins = model.margin(table.raw)
        lines = [",".join(["event_id", "base_value", "margin", *model.feature_names])]
        for i, eid in enumerate(table.event_ids):
            row = [eid, repr(float(base)), repr(float(margins[i]))]
            lines.append(",".join(row + [repr(float(v)) for v in phi[i]]))
        expected = "".join(line + "\n" for line in lines).encode()
        assert (tmp_path / "out" / "attributions.csv").read_bytes() == expected

    def test_attributions_csv_quotes_event_ids(self, tmp_path):
        # Ids with a delimiter or a quote character read back exactly, in rows
        # as wide as the header, as in features.csv.
        rng = np.random.default_rng(5)
        X = rng.normal(0.0, 1.0, (40, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        ids = ["E,1", 'e"2', *(f"E{i}" for i in range(2, 40))]
        PassSampleTable(
            event_ids=ids, labels=y, columns=["a", "b", "c"], raw=X,
        ).to_csv(tmp_path / "features.csv")
        save_model(train_gbdt(PassSampleTable.from_csv(tmp_path / "features.csv"),
                              GbdtHyperParams(n_trees=3)), tmp_path / "model.json")
        rc = cli_dispatch(["explain", "--model", str(tmp_path / "model.json"),
                           "--features", str(tmp_path / "features.csv"),
                           "--per-row", "--out", str(tmp_path / "out")])
        assert rc == 0
        with open(tmp_path / "out" / "attributions.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [6] * (len(ids) + 1)
        assert [r[0] for r in rows[1:]] == ids

    def test_sync_and_segment(self, workspace):
        root, cfg = workspace
        m = root / "match"
        rc = cli_dispatch(["sync", "--config", str(cfg),
                           "--tracking", str(m / "tracking.jsonl"),
                           "--events", str(m / "events.jsonl"),
                           "--out", str(root / "sync")])
        assert rc == 0
        report = json.loads((root / "sync" / "sync_report.json").read_text())
        assert report["shifts"] == {"1": 0}  # synth emits aligned clocks by default
        rc = cli_dispatch(["segment", "--config", str(cfg),
                           "--tracking", str(m / "tracking.jsonl"),
                           "--events", str(m / "events.jsonl"),
                           "--out", str(root / "seg")])
        assert rc == 0
        doc = json.loads((root / "seg" / "sequences.json").read_text())
        covered = [eid for s in doc["sequences"] for eid in s["event_ids"]]
        dropped = [eid for d in doc["dropped"] for eid in d["event_ids"]]
        assert len(covered) + len(dropped) == 61  # kickoff + 60 passes

    def test_render_subcommand(self, workspace):
        root, cfg = workspace
        m = root / "match"
        rc = cli_dispatch(["render", "--config", str(cfg),
                           "--tracking", str(m / "tracking.jsonl"),
                           "--events", str(m / "events.jsonl"),
                           "--frames", "111:131",
                           "--out", str(root / "render")])
        assert rc == 0
        svgs = sorted((root / "render").glob("frame_*.svg"))
        assert len(svgs) == 3
        ET.fromstring(svgs[0].read_text())

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_module_entry_point_runs_without_runtime_warning(self):
        # Importing the package must not import pitchspace.cli, or
        # `python -m pitchspace.cli` would execute that module twice.
        src = str(Path(pitchspace.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "pitchspace.cli", "frobnicate"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "RuntimeWarning" not in proc.stderr
        assert "usage error" in proc.stderr

    @pytest.mark.parametrize(
        "module", sorted(m.name for m in pkgutil.iter_modules(pitchspace.__path__))
    )
    def test_each_module_imports_on_its_own(self, module):
        src = str(Path(pitchspace.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            f"import pitchspace.{module}\n"
            "print('\\n'.join(sorted(m for m in sys.modules if m.startswith('pitchspace.'))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        if module == "pitch":  # the package itself imports none of its modules
            assert proc.stdout.split() == ["pitchspace.pitch"]
        if module == "match_io":  # the loader needs no motion model
            assert proc.stdout.split() == ["pitchspace.match_io", "pitchspace.pitch"]

    def test_import_loads_no_network_stack(self):
        # The library and CLI need none of these; the stdlib XML escape alone
        # pulls in urllib.request, http.client, email, ssl and socket.
        src = str(Path(pitchspace.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import pitchspace, pitchspace.cli\n"
            "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        added = proc.stdout.split()
        assert "pitchspace.cli" in added
        heavy = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket",
                 "hashlib", "_hashlib")
        assert [m for m in added if m in heavy or m.startswith(tuple(h + "." for h in heavy))] == []

    def test_malformed_frame_range_exits_1(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        rc = cli_dispatch(["render", "--config", str(cfg), *_match_args(root / "match"),
                           "--frames", "abc", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "expected lo:hi with integer ends, got 'abc'" in capsys.readouterr().err

    def test_empty_frame_range_exits_2(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        rc = cli_dispatch(["render", "--config", str(cfg), *_match_args(root / "match"),
                           "--frames", "5:1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "tracking.jsonl: no frames in the requested range" in capsys.readouterr().err

    def test_frame_with_every_player_offside_exits_2(self, workspace, tmp_path, capsys):
        # frame 5 holds three team-A players beyond the halfway line and the
        # ball, with no defender: all three are offside-excluded
        root, cfg = workspace
        m = root / "match"
        lines = (m / "tracking.jsonl").read_text(encoding="utf-8").splitlines(True)
        rec = json.loads(lines[5])
        assert rec["frame"] == 5
        rec["attacks_right"] = "A"
        rec["ball"]["x"] = -40.0
        rec["players"] = [
            {"id": f"A0{i}", "team": "A", "x": 40.0 + i, "y": float(i), "vx": 0.0, "vy": 0.0}
            for i in (1, 2, 3)
        ]
        lines[5] = json.dumps(rec) + "\n"
        tracking = tmp_path / "tracking.jsonl"
        tracking.write_text("".join(lines), encoding="utf-8")
        rc = cli_dispatch(["render", "--config", str(cfg), "--tracking", str(tracking),
                           "--events", str(m / "events.jsonl"), "--frames", "5:5",
                           "--attacking-team", "A", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{tracking}: frame 5: every player is offside-excluded" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("frame_*.svg"))

    def test_refused_last_frame_leaves_no_svg_of_the_earlier_ones(
        self, workspace, tmp_path, capsys
    ):
        # render validates every frame in its first pass: frame 4 renders,
        # but frame 5, all offside (as above), is refused before any SVG.
        root, cfg = workspace
        m = root / "match"
        lines = (m / "tracking.jsonl").read_text(encoding="utf-8").splitlines(True)
        rec = json.loads(lines[5])
        rec["ball"]["x"] = -40.0
        rec["players"] = [
            {"id": f"A0{i}", "team": "A", "x": 40.0 + i, "y": float(i), "vx": 0.0, "vy": 0.0}
            for i in (1, 2, 3)
        ]
        lines[5] = json.dumps(rec) + "\n"
        tracking = tmp_path / "tracking.jsonl"
        tracking.write_text("".join(lines), encoding="utf-8")
        argv = ["render", "--config", str(cfg), "--tracking", str(tracking),
                "--events", str(m / "events.jsonl"), "--attacking-team", "A"]
        assert cli_dispatch([*argv, "--frames", "4:4", "--out", str(tmp_path / "ok")]) == 0
        rc = cli_dispatch([*argv, "--frames", "4:5", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{tracking}: frame 5: every player is offside-excluded" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("frame_*.svg"))

    @pytest.mark.parametrize("keys, per_frame", [
        pytest.param("", 2, id="percentiles"),
        pytest.param("render.colormap_min = 0.0\nrender.colormap_max = 900.0\n", 1, id="set"),
    ])
    def test_render_partitions_each_frame_once_when_the_colormap_is_set(
        self, workspace, tmp_path, monkeypatch, keys, per_frame
    ):
        # The first pass needs the partition only for the colormap
        # percentiles; the second computes each frame's field again.
        root, cfg = workspace
        calls = []
        real = cli.compute_dominance_grid
        monkeypatch.setattr(
            cli, "compute_dominance_grid", lambda *a: calls.append(a[0].frame_index) or real(*a)
        )
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(cfg.read_text(encoding="utf-8") + keys, encoding="utf-8")
        rc = cli_dispatch(["render", "--config", str(run_cfg), *_match_args(root / "match"),
                           "--frames", "111:131", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert calls == [111, 121, 131] * per_frame

    def test_xml_forbidden_player_id_exits_2(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        m = root / "match"
        lines = (m / "tracking.jsonl").read_text(encoding="utf-8").splitlines(True)
        rec = json.loads(lines[1])
        rec["players"][0]["id"] = "A\u00010"
        lines[1] = json.dumps(rec) + "\n"
        tracking = tmp_path / "tracking.jsonl"
        tracking.write_text("".join(lines), encoding="utf-8")
        rc = cli_dispatch(["render", "--config", str(cfg), "--tracking", str(tracking),
                           "--events", str(m / "events.jsonl"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{tracking}:2: player id 'A\\x010' has a character XML 1.0 forbids" in (
            capsys.readouterr().err
        )
        assert not list((tmp_path / "out").glob("frame_*.svg"))

    def test_integer_beyond_float_range_exits_2(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        m = root / "match"
        lines = (m / "tracking.jsonl").read_text(encoding="utf-8").splitlines(True)
        rec = json.loads(lines[1])
        rec["players"][0]["x"] = 10**400
        lines[1] = json.dumps(rec) + "\n"
        tracking = tmp_path / "tracking.jsonl"
        tracking.write_text("".join(lines), encoding="utf-8")
        rc = cli_dispatch(["render", "--config", str(cfg), "--tracking", str(tracking),
                           "--events", str(m / "events.jsonl"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{tracking}:2: key 'x' must be a finite number" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        rc = cli_dispatch(["features", "--tracking", str(tmp_path / "nope.jsonl"),
                           "--events", str(tmp_path / "nope2.jsonl"),
                           "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("columns", [["f0", "f1", "f2"], [f"f{i}" for i in range(5)]])
    def test_eval_names_a_custom_layout_neutrally(self, tmp_path, capsys, columns):
        # Neither table is a top-n layout, so its row is not named n=0 or n=1.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.max_depth = 2\nmodel.n_trees = 5\ncv.k = 2\n", encoding="utf-8")
        x = np.random.default_rng(3).uniform(size=(20, len(columns)))
        PassSampleTable(
            [f"e{i}" for i in range(20)], (x[:, 0] > 0.5).astype(np.int64), columns, x
        ).to_csv(tmp_path / "features.csv")
        args = ["--config", str(cfg), "--features", str(tmp_path / "features.csv")]
        assert cli_dispatch(["train", *args, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli_dispatch(["eval", *args, "--model", str(tmp_path / "model.json")]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].split()[0] == "custom"
        assert not any(row.startswith("n=") for row in rows)

    @pytest.mark.parametrize("command", ["eval", "explain"])
    @pytest.mark.parametrize("table", ["swapped_names", "five_columns"])
    def test_model_commands_refuse_a_table_of_other_columns(
        self, trained, tmp_path, capsys, command, table
    ):
        # Either table would be read by position against the model's columns.
        t = PassSampleTable.from_csv(trained / "features.csv")
        if table == "swapped_names":
            t.columns[:2] = t.columns[1::-1]
        else:
            t = PassSampleTable(t.event_ids, t.labels, t.columns[:5], t.raw[:, :5])
        features = tmp_path / "features.csv"
        t.to_csv(features)
        out = tmp_path / "out"
        rc = cli_dispatch([command, "--model", str(trained / "model.json"),
                           "--features", str(features), "--out", str(out)])
        assert rc == 2
        assert f"data error: {features}: feature columns [" in capsys.readouterr().err
        assert not out.exists()

    def test_cyclic_model_exits_2(self, tmp_path, capsys):
        # Node 1 routes back to node 0, so traversal would never reach a leaf.
        cyclic = Tree([0, 0], [0.5, 0.5], [1, 0], [1, 0], [0.0, 0.0], [2, 2])
        save_model(
            GbdtModel(0.0, [cyclic], ["f0"], {"f0": 0.5}, GbdtHyperParams()),
            tmp_path / "model.json",
        )
        PassSampleTable(
            ["e1", "e2"], np.array([0, 1]), ["f0"], np.array([[0.0], [1.0]])
        ).to_csv(tmp_path / "features.csv")
        rc = cli_dispatch(["eval", "--model", str(tmp_path / "model.json"),
                           "--features", str(tmp_path / "features.csv")])
        assert rc == 2
        assert "model.json: tree 0 node 1" in capsys.readouterr().err

    def test_deep_tree_explains(self, tmp_path):
        # One feature, thresholds 0, 1, 2, ... down a right spine of 1,500
        # internal nodes, each with a leaf on its left: deeper than Python's
        # recursion limit, and a valid model for load_model.
        depth = 1500
        feature = [0, -1] * depth + [-1]
        threshold = [float(k // 2) if k % 2 == 0 else 0.0 for k in range(2 * depth)] + [0.0]
        left = [k + 1 if k % 2 == 0 else -1 for k in range(2 * depth)] + [-1]
        right = [k + 2 if k % 2 == 0 else -1 for k in range(2 * depth)] + [-1]
        value = [0.0 if k % 2 == 0 else 1e-3 * (k % 7) for k in range(2 * depth)] + [0.5]
        cover = [depth - k // 2 + 1 if k % 2 == 0 else 1 for k in range(2 * depth)] + [1]
        spine = Tree(feature, threshold, left, right, value, cover)
        save_model(GbdtModel(0.1, [spine], ["f0"], {"f0": 0.0}, GbdtHyperParams()),
                   tmp_path / "model.json")
        x = np.linspace(-1.0, depth + 1.0, 25)
        PassSampleTable(
            [f"e{i}" for i in range(25)], np.arange(25) % 2, ["f0"], x[:, np.newaxis]
        ).to_csv(tmp_path / "features.csv")
        args = ["--model", str(tmp_path / "model.json"),
                "--features", str(tmp_path / "features.csv")]
        assert cli_dispatch(["eval", *args]) == 0
        assert cli_dispatch(["explain", *args, "--per-row", "--out", str(tmp_path / "x")]) == 0
        with open(tmp_path / "x" / "attributions.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        for row in rows:
            base, margin, phi = (float(row[k]) for k in ("base_value", "margin", "f0"))
            assert abs(base + phi - margin) <= 1e-9

    def test_explain_refuses_a_leaf_path_over_the_feature_bound(self, tmp_path, capsys):
        # A valid model whose deepest leaf path splits on all 40 columns: its
        # leaf table would hold 2**40 rows, so explain refuses it before
        # building any; eval builds none and still runs.
        columns = [f"f{j}" for j in range(40)]
        model = tmp_path / "model.json"
        save_model(GbdtModel(0.1, [chain_tree(40)], columns, dict.fromkeys(columns, 0.0),
                             GbdtHyperParams()), model)
        x = np.random.default_rng(0).normal(size=(25, 40))
        PassSampleTable([f"e{i}" for i in range(25)], np.arange(25) % 2, columns, x).to_csv(
            tmp_path / "features.csv"
        )
        args = ["--model", str(model), "--features", str(tmp_path / "features.csv")]
        assert cli_dispatch(["eval", *args]) == 0
        capsys.readouterr()
        assert cli_dispatch(["explain", *args, "--out", str(tmp_path / "x")]) == 2
        assert (f"data error: {model}: a leaf path splits on 40 distinct features; "
                f"attribution takes at most {explain.MAX_PATH_FEATURES}\n") in capsys.readouterr().err

    def test_explain_refuses_a_tree_over_the_table_bound(self, tmp_path, capsys, monkeypatch):
        # A full depth-12 tree over 12 columns: each leaf path is within the
        # feature bound, but the 4,096 leaf tables would take 1.6 GB. explain
        # refuses it before building any table (exit 2, naming the model).
        def no_table(z, value):
            raise AssertionError("a leaf table was built")

        monkeypatch.setattr(explain, "_leaf_table", no_table)
        columns = [f"f{j}" for j in range(12)]
        model = tmp_path / "model.json"
        save_model(GbdtModel(0.1, [full_tree(12)], columns, dict.fromkeys(columns, 0.0),
                             GbdtHyperParams()), model)
        x = np.random.default_rng(0).normal(size=(25, 12))
        PassSampleTable([f"e{i}" for i in range(25)], np.arange(25) % 2, columns, x).to_csv(
            tmp_path / "features.csv"
        )
        args = ["--model", str(model), "--features", str(tmp_path / "features.csv")]
        assert cli_dispatch(["explain", *args, "--out", str(tmp_path / "x")]) == 2
        assert (f"data error: {model}: the leaf tables of one tree would hold {1 << 24} rows; "
                f"attribution takes at most {explain.MAX_TREE_TABLE_ROWS}\n") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, n, column",
        [
            # ten attackers leave at most nine candidates, so rank 10 is padding
            pytest.param("", "10", "fast_space_vel_10", id="n_beyond_candidates"),
            # with no defender every interception time is +inf
            pytest.param("synth.defenders = 0\n", "3", "time_to_player_1", id="no_defenders"),
        ],
    )
    def test_features_writes_a_column_without_finite_values(
        self, tmp_path, capsys, config, n, column
    ):
        # features writes the padded table; train imputes the column with
        # 0.0, a constant no tree splits on
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "pitch.grid_cell = 2.0\nsynth.passes = 30\nsynth.kickoff_frames = 20\n" + config,
            encoding="utf-8",
        )
        m, t = tmp_path / "match", tmp_path / "table"
        assert cli_dispatch(["synth", "--config", str(cfg), "--seed", "3", "--out", str(m)]) == 0
        assert cli_dispatch(["features", "--config", str(cfg), *_match_args(m), "--n", n,
                             "--out", str(t)]) == 0
        table = PassSampleTable.from_csv(t / "features.csv")
        assert len(table) == 30
        j = table.columns.index(column)
        assert not np.isfinite(table.raw[:, j]).any()
        rc = cli_dispatch(["train", "--config", str(cfg), "--features", str(t / "features.csv"),
                           "--out", str(tmp_path / "model")])
        assert rc == 0, capsys.readouterr().err
        model = load_model(tmp_path / "model" / "model.json")
        assert model.medians[column] == 0.0
        assert all(j not in tree.feature.tolist() for tree in model.trees)

    def test_compare_rankings_with_n_beyond_candidates(self, tmp_path, capsys):
        # ten attackers leave at most nine candidates: rank 10 is all padding
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "pitch.grid_cell = 2.0\nsynth.passes = 30\nsynth.kickoff_frames = 20\n",
            encoding="utf-8",
        )
        m = tmp_path / "match"
        assert cli_dispatch(["synth", "--config", str(cfg), "--seed", "3", "--out", str(m)]) == 0
        rc = cli_dispatch(["compare-rankings", "--config", str(cfg), *_match_args(m),
                           "--n", "10", "--out", str(tmp_path / "cmp")])
        assert rc == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "cmp" / "ranking_report.json").read_text())
        assert [row["variable"] for row in report["rows"]] == list(RANKING_VARIABLES)

    @pytest.mark.parametrize(
        "medians, csv_tail, located",
        [
            pytest.param({"f0": 0.5}, "\r\ne3,1,2.0,0\r\n", "features.csv:4: blank line",
                         id="blank_csv_line"),
            pytest.param({}, "", "model.json: median of column 'f0'", id="missing_median"),
        ],
    )
    def test_bad_eval_inputs_exit_2(self, tmp_path, capsys, medians, csv_tail, located):
        stump = Tree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, -0.1, 0.1],
                     [2, 1, 1])
        save_model(GbdtModel(0.0, [stump], ["f0"], medians, GbdtHyperParams()),
                   tmp_path / "model.json")
        PassSampleTable(
            ["e1", "e2"], np.array([0, 1]), ["f0"], np.array([[0.0], [1.0]])
        ).to_csv(tmp_path / "features.csv")
        with open(tmp_path / "features.csv", "a", encoding="utf-8", newline="") as fh:
            fh.write(csv_tail)
        rc = cli_dispatch(["eval", "--model", str(tmp_path / "model.json"),
                           "--features", str(tmp_path / "features.csv")])
        assert rc == 2
        assert located in capsys.readouterr().err

    # The gain matrix's 0/0 must not leak numpy RuntimeWarnings before the
    # located message.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_hessian_with_zero_l2_lambda_exits_2(self, tmp_path, capsys):
        # A separable table fitted at learning rate 1 drives the positive
        # rows' probability to exactly 1 (hessian 0); a subsample of only
        # positive rows then has hessian sum 0.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model.max_depth = 1\nmodel.learning_rate = 1\nmodel.n_trees = 100\n"
            "model.l2_lambda = 0\nmodel.subsample = 0.5\ncv.k = 2\n",
            encoding="utf-8",
        )
        x = np.arange(20.0)
        PassSampleTable(
            [f"e{i}" for i in range(20)], (x >= 4).astype(np.int64), ["f0"],
            x[:, np.newaxis],
        ).to_csv(tmp_path / "features.csv")
        rc = cli_dispatch(["train", "--config", str(cfg), "--features",
                           str(tmp_path / "features.csv"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "l2_lambda=0.0: a tree node has hessian sum 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fewer_rows_than_folds_exits_2(self, tmp_path, capsys):
        # Two rows per class fill only two of the default five folds; an
        # empty fold's accuracy would be NaN, which JSON cannot hold.
        PassSampleTable(
            ["e1", "e2", "e3", "e4"], np.array([0, 1, 0, 1]), ["f0"],
            np.arange(4.0)[:, np.newaxis],
        ).to_csv(tmp_path / "features.csv")
        rc = cli_dispatch(["train", "--features", str(tmp_path / "features.csv"),
                           "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "the largest class has 2 sample(s); stratified 5-fold needs 5" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out" / "cv_results.json").exists()

    def test_class_too_small_for_folds_is_located(self, tmp_path, capsys):
        path = tmp_path / "features.csv"
        PassSampleTable(
            ["e1", "e2", "e3"], np.array([0, 0, 1]), ["f0"], np.arange(3.0)[:, np.newaxis]
        ).to_csv(path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cv.k = 2\n", encoding="utf-8")
        rc = cli_dispatch(["train", "--config", str(cfg), "--features", str(path),
                           "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"data error: {path}: class 1 has 1 sample(s)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "explain", "train"])
    def test_header_only_table_is_located(self, tmp_path, capsys, command):
        model = tmp_path / "model.json"
        save_model(train_gbdt(PassSampleTable(
            ["e1", "e2"], np.array([0, 1]), ["f0"], np.array([[0.0], [1.0]])
        ), GbdtHyperParams(n_trees=2, max_depth=1)), model)
        path = tmp_path / "features.csv"
        PassSampleTable([], np.array([], dtype=np.int64), ["f0"], np.empty((0, 1))).to_csv(path)
        argv = {
            "eval": ["eval", "--model", str(model)],
            "explain": ["explain", "--model", str(model), "--out", str(tmp_path / "out")],
            "train": ["train", "--out", str(tmp_path / "out")],
        }[command]
        assert cli_dispatch([*argv, "--features", str(path)]) == 2
        assert f"data error: {path}:1: a header but no rows" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["files", "matches"])
    @pytest.mark.parametrize("command", ["features", "compare-rankings"])
    def test_features_without_pass_events_exits_2(
        self, workspace, tmp_path, capsys, command, mode
    ):
        # A kickoff-only match gives no row, and every reader refuses a table
        # with no rows: features and compare-rankings refuse it, name their
        # input and write nothing.
        root, cfg = workspace
        m = tmp_path / "matches" / "kick"
        shutil.copytree(root / "match", m)
        events = m / "events.jsonl"
        events.write_text(events.read_text(encoding="utf-8").splitlines(keepends=True)[0],
                          encoding="utf-8")
        source = {"files": _match_args(m), "matches": ["--matches", str(tmp_path / "matches")]}
        named = {"files": events, "matches": tmp_path / "matches"}[mode]
        capsys.readouterr()
        out = tmp_path / "runs" / "out"
        rc = cli_dispatch([command, "--config", str(cfg), *source[mode], "--out", str(out)])
        assert rc == 2
        assert f"data error: {named}: no pass events to extract" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("mode", ["files", "matches"])
    @pytest.mark.parametrize("command", ["features", "compare-rankings"])
    def test_missing_passer_names_the_events_and_the_pass(
        self, workspace, tmp_path, capsys, command, mode
    ):
        root, cfg = workspace
        m = tmp_path / "matches" / "m1"
        shutil.copytree(root / "match", m)
        events = m / "events.jsonl"
        records = [json.loads(line) for line in events.read_text(encoding="utf-8").splitlines()]
        first = next(r for r in records if r["type"] == "pass")
        first["player"] = "ZZZ"
        events.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        source = {"files": _match_args(m), "matches": ["--matches", str(tmp_path / "matches")]}
        named = {"files": events, "matches": tmp_path / "matches"}[mode]
        event_id = {"files": "", "matches": "m1/"}[mode] + first["event_id"]
        capsys.readouterr()
        rc = cli_dispatch([command, "--config", str(cfg), *source[mode],
                           "--out", str(tmp_path / "out")])
        assert rc == 2
        assert (f"data error: {named}: pass {event_id}: passer 'ZZZ' missing from frame "
                f"{first['frame']}\n") in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["eval", "explain"])
    @pytest.mark.parametrize("case", ["zero_covers", "overflowing_values"])
    def test_model_that_eval_or_explain_cannot_handle_exits_2(
        self, trained, tmp_path, capsys, case, command
    ):
        doc = json.loads((trained / "model.json").read_text(encoding="utf-8"))
        if case == "zero_covers":
            # zero the right subtree of a split root, and lower the root's
            # cover so that every cover sum still holds
            t, tree = next((t, tree) for t, tree in enumerate(doc["trees"])
                           if tree["feature"][0] >= 0)
            stack = [tree["right"][0]]
            while stack:
                node = stack.pop()
                tree["cover"][node] = 0
                if tree["feature"][node] >= 0:
                    stack += [tree["left"][node], tree["right"][node]]
            tree["cover"][0] = tree["cover"][tree["left"][0]]
            located = f"tree {t} node {tree['right'][0]}: cover 0 is below 1"
        else:
            for tree in doc["trees"][:2]:
                tree["value"] = [1e308 if f < 0 else v
                                 for f, v in zip(tree["feature"], tree["value"])]
            located = "tree 0: leaf values too large"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--model", str(model), "--features", str(trained / "features.csv")]
        capsys.readouterr()
        rc = cli_dispatch(argv + (["--out", str(tmp_path / "x")] if command == "explain" else []))
        assert rc == 2
        assert f"data error: {model}: {located}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_explain_summary_that_overflows_names_the_model(self, trained, tmp_path, capsys):
        # Each row's attribution is within load_model's bound (+-5e307 with
        # covers 1 and 1), but their sum over 10 rows is not.
        doc = json.loads((trained / "model.json").read_text(encoding="utf-8"))
        doc["base_score"] = 0.0
        doc["trees"] = [{"feature": [0, -1, -1], "threshold": [0.0, 0.0, 0.0],
                         "left": [1, -1, -1], "right": [2, -1, -1],
                         "value": [0.0, 5e307, -5e307], "cover": [2, 1, 1]}]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        lines = (trained / "features.csv").read_text(encoding="utf-8").splitlines(True)
        features = tmp_path / "features.csv"
        features.write_text("".join(lines[:11]), encoding="utf-8")
        argv = ["--model", str(model), "--features", str(features)]
        assert cli_dispatch(["eval", *argv]) == 0
        capsys.readouterr()
        out = tmp_path / "x"
        assert cli_dispatch(["explain", *argv, "--out", str(out)]) == 2
        assert (f"data error: {model}: leaf values too large for this table: the attribution "
                "summary of 10 rows overflows") in capsys.readouterr().err
        assert not out.exists()

    def test_ranking_option_is_the_config_key(self, workspace, trained, tmp_path):
        root, cfg = workspace
        keyed = tmp_path / "keyed.cfg"
        keyed.write_text(cfg.read_text(encoding="utf-8")
                         + "feature.ranking_variable = time_to_player\n", encoding="utf-8")
        match = _match_args(root / "match")
        assert cli_dispatch(["features", "--config", str(cfg), *match,
                             "--ranking", "time_to_player", "--out", str(tmp_path / "opt")]) == 0
        assert cli_dispatch(["features", "--config", str(keyed), *match,
                             "--out", str(tmp_path / "key")]) == 0
        written = [(tmp_path / d / "features.csv").read_bytes() for d in ("opt", "key")]
        assert written[0] == written[1]
        assert written[0] != (trained / "features.csv").read_bytes()  # ranked by dist_ball

    def test_segment_names_the_event_out_of_frame_order(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        m = tmp_path / "match"
        shutil.copytree(root / "match", m)
        events = m / "events.jsonl"
        lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3], lines[4] = lines[4], lines[3]  # E0004 at frame 141, then E0003 at 131
        events.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        rc = cli_dispatch(["segment", "--config", str(cfg), *_match_args(m),
                           "--out", str(tmp_path / "seg")])
        assert rc == 2
        assert (f"data error: {events}: event E0003 at frame 131 follows frame 141: "
                "events must be sorted by frame") in capsys.readouterr().err

    def test_feature_table_without_feature_columns_exits_2(self, tmp_path, capsys):
        PassSampleTable(
            [f"e{i}" for i in range(20)], np.arange(20) % 2, [], np.empty((20, 0))
        ).to_csv(tmp_path / "features.csv")
        rc = cli_dispatch(["train", "--features", str(tmp_path / "features.csv"),
                           "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "features.csv:1: no feature columns" in capsys.readouterr().err

    @pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
    def test_failed_command_removes_only_the_empty_out_it_made(self, tmp_path, existing):
        PassSampleTable(
            ["e1", "e2", "e3", "e4"], np.array([0, 1, 0, 1]), ["f0"],
            np.arange(4.0)[:, np.newaxis],
        ).to_csv(tmp_path / "features.csv")
        out = tmp_path / "runs" / "a" / "out"
        if existing:
            out.mkdir(parents=True)
        rc = cli_dispatch(["train", "--features", str(tmp_path / "features.csv"),
                           "--out", str(out)])
        assert rc == 2
        assert out.is_dir() == existing
        assert (tmp_path / "runs").is_dir() == existing

    def test_failed_command_keeps_the_out_it_wrote_to(self, tmp_path, monkeypatch):
        def fail_after_writing(args, cfg, out):
            (out / "partial.txt").write_text("x", encoding="utf-8")
            raise ValueError("failed after a write")

        monkeypatch.setattr(cli, "cmd_synth", fail_after_writing)
        out = tmp_path / "runs" / "out"
        rc = cli_dispatch(["synth", "--out", str(out)])
        assert rc == 2
        assert [p.name for p in out.iterdir()] == ["partial.txt"]

    def test_bad_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense.key = 1\n", encoding="utf-8")
        rc = cli_dispatch(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize(
        "line",
        [
            # infinite times always rank first, so no key places them
            pytest.param("feature.infinite_rank = first", id="infinite_rank"),
            # fast_space_vel is the space score; no best-move reading remains
            pytest.param("feature.fast_space_vel = current", id="fast_space_vel"),
            # the synthetic receiver is always the passer's nearest teammate
            pytest.param("synth.receiver_mode = nearest", id="receiver_mode"),
            # inputs come from --tracking/--events or --matches only
            pytest.param("paths.tracking = tracking.jsonl", id="paths_tracking"),
            pytest.param("paths.events = events.jsonl", id="paths_events"),
        ],
    )
    def test_removed_infinite_rank_key_exits_1(self, workspace, tmp_path, capsys, line):
        root, _ = workspace
        cfg = tmp_path / "old.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        rc = cli_dispatch(["compare-rankings", "--config", str(cfg),
                           *_match_args(root / "match"), "--out", str(tmp_path / "o")])
        assert rc == 1
        key = line.split(" =")[0]
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param("model.n_trees = inf", id="infinite_n_trees"),
            pytest.param("synth.frame_rate = 0", id="zero_frame_rate"),
            pytest.param("motion.max_speed = nan", id="nan_max_speed"),
            # a drift of 13 m/s * 1e149 s would pass MAX_COORDINATE
            pytest.param("motion.reaction_time = 1e149", id="overflowing_reaction_time"),
            # a time over 1e150 m at under 1e-150 m/s could pass 1e300 s
            pytest.param("motion.max_speed = 1e-151", id="vanishing_max_speed"),
        ],
    )
    def test_bad_config_value_exits_1(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        rc = cli_dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"line 1: {line.split(' =')[0]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_synth_rule_with_non_finite_margin_exits_2(self, tmp_path, capsys):
        huge = "1" + "0" * 308
        cfg = tmp_path / "rule.cfg"
        cfg.write_text(
            "synth.empty_defense_rate = 0\n"
            f"synth.rule = {huge}*dist_ball - {huge}*time_to_player\n",
            encoding="utf-8",
        )
        rc = cli_dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "the planted rule's margin is nan, not finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, pitch_key",
        [
            pytest.param("features", "pitch.grid_cell = 0.0001", id="features_tiny_cell"),
            pytest.param("render", "pitch.length = 1e9", id="render_huge_pitch"),
        ],
    )
    def test_oversized_grid_exits_1(self, workspace, tmp_path, capsys, command, pitch_key):
        # Both grids would need gigabytes to terabytes of memory; the config is
        # refused before any input is read.
        root, _ = workspace
        m = root / "match"
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(pitch_key + "\n", encoding="utf-8")
        rc = cli_dispatch([command, "--config", str(cfg),
                           "--tracking", str(m / "tracking.jsonl"),
                           "--events", str(m / "events.jsonl"),
                           "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "grid cells" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_compare_rankings_smoke(self, workspace, capsys, tmp_path):
        root, cfg = workspace
        m = root / "match"
        rc = cli_dispatch(["compare-rankings", "--config", str(cfg),
                           "--tracking", str(m / "tracking.jsonl"),
                           "--events", str(m / "events.jsonl"),
                           "--n", "2", "--out", str(tmp_path / "cmp")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dist_ball" in out and "<- selected" in out
        assert "[infinite" not in out
        report = json.loads((tmp_path / "cmp" / "ranking_report.json").read_text())
        assert sorted(report) == ["best_variable", "rows"]
        assert [row["variable"] for row in report["rows"]] == list(RANKING_VARIABLES)
        assert report["best_variable"] in RANKING_VARIABLES

    def test_compare_rankings_extracts_once(self, workspace, tmp_path, monkeypatch):
        from pitchspace import features, gbdt

        root, cfg = workspace
        m = root / "match"
        calls = []
        extract = features.extract_event_features

        def counting(*args, **kwargs):
            calls.append(args[0])
            return extract(*args, **kwargs)

        for mod in (features, gbdt):
            if hasattr(mod, "extract_event_features"):
                monkeypatch.setattr(mod, "extract_event_features", counting)
        rc = cli_dispatch(["compare-rankings", "--config", str(cfg),
                           "--tracking", str(m / "tracking.jsonl"),
                           "--events", str(m / "events.jsonl"),
                           "--n", "2", "--out", str(tmp_path / "cmp")])
        assert rc == 0
        assert len(calls) == 1

    def test_compare_rankings_report_bytes_match_full_extraction(
        self, workspace, tmp_path, monkeypatch
    ):
        from pitchspace import gbdt

        root, cfg = workspace
        argv = ["compare-rankings", "--config", str(cfg), *_match_args(root / "match")]
        assert cli_dispatch([*argv, "--out", str(tmp_path / "selected")]) == 0
        extract = gbdt.extract_match_features
        monkeypatch.setattr(
            gbdt, "extract_match_features", lambda *args: extract(*args[:4], selection=None)
        )
        assert cli_dispatch([*argv, "--out", str(tmp_path / "full")]) == 0
        report = "ranking_report.json"
        assert (tmp_path / "selected" / report).read_bytes() == (tmp_path / "full" / report).read_bytes()


class TestSyncWorkflow:
    def test_offset_clocks_sync_then_features(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "pitch.grid_cell = 2.0\nsynth.passes = 20\nsynth.kickoff_frames = 120\n"
            "synth.frame_offset = 9\n",
            encoding="utf-8",
        )
        m = tmp_path / "match"
        assert cli_dispatch(["synth", "--config", str(cfg), "--seed", "3",
                             "--out", str(m)]) == 0
        # Misaligned event clocks: features must refuse until synced.
        rc = cli_dispatch(["features", "--config", str(cfg),
                           "--tracking", str(m / "tracking.jsonl"),
                           "--events", str(m / "events.jsonl"),
                           "--out", str(tmp_path / "feat_bad")])
        assert rc == 2
        assert cli_dispatch(["sync", "--config", str(cfg),
                             "--tracking", str(m / "tracking.jsonl"),
                             "--events", str(m / "events.jsonl"),
                             "--out", str(tmp_path / "synced")]) == 0
        report = json.loads((tmp_path / "synced" / "sync_report.json").read_text())
        assert report["shifts"] == {"1": -9}
        rc = cli_dispatch(["features", "--config", str(cfg),
                           "--tracking", str(tmp_path / "synced" / "tracking.jsonl"),
                           "--events", str(tmp_path / "synced" / "events.jsonl"),
                           "--out", str(tmp_path / "feat")])
        assert rc == 0

    def test_sync_names_the_tracking_file(self, workspace, tmp_path, capsys):
        # Every frame at one timestamp: the kickoff window cannot be differentiated.
        root, cfg = workspace
        m = root / "match"
        tracking = tmp_path / "tracking.jsonl"
        with open(tracking, "w", encoding="utf-8") as fh:
            for line in (m / "tracking.jsonl").read_text(encoding="utf-8").splitlines():
                fh.write(json.dumps({**json.loads(line), "time": 0.0}) + "\n")
        rc = cli_dispatch(["sync", "--config", str(cfg), "--tracking", str(tracking),
                           "--events", str(m / "events.jsonl"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert (f"data error: {tracking}: frame timestamps must be strictly increasing"
                in capsys.readouterr().err)

    def test_matches_directory_mode(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pitch.grid_cell = 2.0\nsynth.passes = 10\n", encoding="utf-8")
        for i, seed in enumerate((5, 6)):
            assert cli_dispatch(["synth", "--config", str(cfg), "--seed", str(seed),
                                 "--out", str(tmp_path / "matches" / f"m{i}")]) == 0
        rc = cli_dispatch(["features", "--config", str(cfg),
                           "--matches", str(tmp_path / "matches"),
                           "--out", str(tmp_path / "feat")])
        assert rc == 0
        lines = (tmp_path / "feat" / "features.csv").read_text().splitlines()
        assert len(lines) == 1 + 20  # header + 10 passes per match

    def test_matches_are_loaded_one_at_a_time(self, tmp_path):
        # Each match is loaded only when extraction reaches it, so the peak
        # does not grow with the number of matches. The matches are copies of
        # one match of mostly kickoff frames, which are loaded and not extracted.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "pitch.grid_cell = 2.0\nsynth.passes = 20\nsynth.kickoff_frames = 400\n",
            encoding="utf-8",
        )
        m = tmp_path / "match"
        assert cli_dispatch(["synth", "--config", str(cfg), "--out", str(m)]) == 0
        assert cli_dispatch(["features", "--config", str(cfg), *_match_args(m),
                             "--out", str(tmp_path / "one")]) == 0
        header, *rows = (tmp_path / "one" / "features.csv").read_text().splitlines(keepends=True)
        peaks = {}
        for copies in (2, 20):
            root = tmp_path / f"copies{copies}"
            for i in range(copies):
                shutil.copytree(m, root / f"m{i:02d}")
            gc.collect()
            tracemalloc.start()
            try:
                rc = cli_dispatch(["features", "--config", str(cfg), "--matches", str(root),
                                   "--out", str(tmp_path / f"feat{copies}")])
                peaks[copies] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 0
            table = (tmp_path / f"feat{copies}" / "features.csv").read_text()
            assert table == header + "".join(
                f"m{i:02d}/{row}" for i in range(copies) for row in rows
            )
        assert peaks[20] <= 2 * peaks[2], peaks

    # (config, first frame, frame step, bound in bytes per frame): the kickoff
    # frames are numbered 0, 1, ...; the pass frames 111, 121, ... after 60
    # kickoff frames.
    RENDER_MEMORY_CASES = {
        "kickoff": ("synth.passes = 10\nsynth.kickoff_frames = 80\n", 0, 1, 0.01e6),
        "passes": ("synth.passes = 80\nsynth.kickoff_frames = 60\n", 111, 10, 0.01e6),
    }

    @pytest.mark.parametrize("case", RENDER_MEMORY_CASES)
    def test_render_peak_grows_at_most_10_kb_per_frame(self, tmp_path, case):
        # render streams: its first pass keeps each frame's non-offside
        # scores alone, for the colormap range, and its second draws each
        # frame from a field computed again and writes its SVG at once. An
        # untraced render of one frame first builds the tables cached per
        # pitch, so that neither peak counts them.
        text, first, step, bound = self.RENDER_MEMORY_CASES[case]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        m = tmp_path / "match"
        assert cli_dispatch(["synth", "--config", str(cfg), "--out", str(m)]) == 0
        assert cli_dispatch(["render", "--config", str(cfg), *_match_args(m),
                             "--frames", f"{first}:{first}",
                             "--out", str(tmp_path / "warm-up")]) == 0
        peaks = {}
        for frames in (20, 80):
            gc.collect()
            tracemalloc.start()
            try:
                rc = cli_dispatch(["render", "--config", str(cfg), *_match_args(m),
                                   "--frames", f"{first}:{first + (frames - 1) * step}",
                                   "--out", str(tmp_path / f"render{frames}")])
                peaks[frames] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 0
            assert len(list((tmp_path / f"render{frames}").glob("frame_*.svg"))) == frames
        assert (peaks[80] - peaks[20]) / 60 <= bound, peaks

    def test_matches_rows_are_keyed_by_match(self, tmp_path):
        # Synthetic matches all number their passes E0001...: under --matches
        # each row's id names its match directory, and the values stay those
        # of the single-match rows. --tracking/--events keeps bare ids.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pitch.grid_cell = 2.0\nsynth.passes = 10\n", encoding="utf-8")
        m = tmp_path / "match"
        assert cli_dispatch(["synth", "--config", str(cfg), "--out", str(m)]) == 0
        for name in ("a", "b"):
            shutil.copytree(m, tmp_path / "matches" / name)
        runs = {"one": _match_args(m), "two": ["--matches", str(tmp_path / "matches")]}
        for out, args in runs.items():
            assert cli_dispatch(["features", "--config", str(cfg), *args,
                                 "--out", str(tmp_path / out)]) == 0
        one = PassSampleTable.from_csv(tmp_path / "one" / "features.csv")
        two = PassSampleTable.from_csv(tmp_path / "two" / "features.csv")
        assert len(one) == 10 and all("/" not in eid for eid in one.event_ids)
        assert two.event_ids == [f"{name}/{eid}" for name in "ab" for eid in one.event_ids]
        assert two.columns == one.columns
        assert two.raw.tobytes() == np.concatenate([one.raw, one.raw]).tobytes()
        assert two.labels.tolist() == one.labels.tolist() * 2

    @pytest.mark.parametrize("command", ["features", "compare-rankings"])
    def test_bad_later_match_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pitch.grid_cell = 2.0\nsynth.passes = 10\ncv.k = 2\n", encoding="utf-8")
        for i, seed in enumerate((5, 6)):
            assert cli_dispatch(["synth", "--config", str(cfg), "--seed", str(seed),
                                 "--out", str(tmp_path / "matches" / f"m{i}")]) == 0
        bad = tmp_path / "matches" / "m1" / "tracking.jsonl"
        lines = bad.read_text(encoding="utf-8").splitlines(keepends=True)
        bad.write_text("".join([*lines[:2], "{not json\n", *lines[2:]]), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "runs" / "out"
        rc = cli_dispatch([command, "--config", str(cfg), "--matches", str(tmp_path / "matches"),
                           "--out", str(out)])
        assert rc == 2
        assert f"data error: {bad}:3: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_render_animate_flag(self, workspace, tmp_path):
        root, cfg = workspace
        m = root / "match"
        rc = cli_dispatch(["render", "--config", str(cfg),
                           "--tracking", str(m / "tracking.jsonl"),
                           "--events", str(m / "events.jsonl"),
                           "--frames", "111:131", "--animate",
                           "--out", str(tmp_path / "anim")])
        assert rc == 0
        doc = (tmp_path / "anim" / "animation.svg").read_text()
        ET.fromstring(doc)


class TestUsageErrors:
    def test_missing_input_flags_exit_1(self, tmp_path, capsys):
        rc = cli_dispatch(["features", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "tracking" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option",
        [
            pytest.param(["features", "--n", "0"], "--n", id="features_n"),
            pytest.param(["compare-rankings", "--n", "0"], "--n", id="compare_rankings_n"),
            # a pass has at most 21 other players; the value is refused, not run
            pytest.param(["features", "--n", "22"], "--n", id="features_n_above_21"),
            pytest.param(["compare-rankings", "--n", "1000000000000"], "--n",
                         id="compare_rankings_huge_n"),
            pytest.param(["train", "--seed", "-1"], "--seed", id="train_seed"),
        ],
    )
    def test_bad_cli_value_exits_1_before_reading_input(self, tmp_path, capsys, argv, option):
        # None of the inputs exists, so reading any of them would exit 2.
        missing = ["--tracking", str(tmp_path / "t.jsonl"), "--events", str(tmp_path / "e.jsonl")]
        if argv[0] == "train":
            missing = ["--features", str(tmp_path / "features.csv")]
        rc = cli_dispatch([*argv, *missing, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"usage error: {option}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_out_exit_1(self, tmp_path):
        rc = cli_dispatch(["synth"])
        assert rc == 1
