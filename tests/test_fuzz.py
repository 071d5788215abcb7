"""Property tests at the input boundaries: whatever a record holds, loading
either accepts it or raises a located SchemaError, never anything else;
whatever a feature table holds, the commands that read it exit 0 or with a
data error that names it; whatever an events file holds, the commands
that read a match exit 0 or 2, `segment`'s data errors naming the file; and
whatever a model's node tables hold, `eval` and `explain` exit 0, with
finite attributions, or with a data error that names the model;
whatever the players' positions, the dominance partition is the full-grid
oracle's, bit for bit; a match's features.csv and its rendered SVGs keep
their bytes when each frame's player rows are reversed or the match is
mirrored in x; its features.csv keeps them when its frame numbers are
shifted and its player ids renamed in sort order; and `features --matches`
over two copies of a match gives its rows twice, under each copy's name.

Runs are derandomized and small, so the suite stays deterministic and quick.
"""

import csv
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from pitchspace.cli import cli_dispatch  # noqa: E402
from pitchspace.dominance import (  # noqa: E402
    ATTACKING,
    MotionParams,
    _partition,
    compute_dominance_grid,
    offside_positions,
    space_scores,
)
from pitchspace.features import (  # noqa: E402
    RANKING_VARIABLES,
    PassSampleTable,
    build_dataset,
    orient_frame,
)
from pitchspace.gbdt import GbdtHyperParams, save_model, train_gbdt  # noqa: E402
from pitchspace.match_io import (  # noqa: E402
    MAX_PLAYERS,
    SchemaError,
    TrackedFrame,
    load_tracking,
    save_match,
)
from pitchspace.pitch import MAX_COORDINATE, Ball, PitchSpec, Point2, WeightParams  # noqa: E402
from pitchspace.render_svg import RenderOptions, render_frame_svg  # noqa: E402
from pitchspace.synth import SynthConfig, synthesize_match  # noqa: E402

from conftest import make_frame, player  # noqa: E402
from test_dominance import oracle_partition  # noqa: E402

# Every numeric field of a tracking record, as a key path.
NUMERIC_FIELDS = [
    ("frame",),
    ("time",),
    ("period",),
    *(("ball", k) for k in ("x", "y", "vx", "vy")),
    *(("players", i, k) for i in (0, 1) for k in ("x", "y", "vx", "vy")),
]

# JSON text of a field value: ints of any size (past the float range and past
# the int-to-str digit limit too), floats with nan and +-inf, bools, strings, null.
JSON_VALUES = st.one_of(
    st.integers().map(str),
    st.integers(min_value=300, max_value=5000).map(lambda n: "-1" + "0" * n),
    st.floats().map(json.dumps),
    st.booleans().map(json.dumps),
    st.text(max_size=4).map(json.dumps),
    st.just("null"),
)


def tracking_line(values: dict) -> str:
    """One tracking record with each field of `values` set to its JSON text."""
    rec = {
        "frame": 0,
        "time": 0.0,
        "ball": {"x": 0.0, "y": 0.0, "vx": 0.0, "vy": 0.0},
        "players": [
            {"id": "A1", "team": "A", "x": -5.0, "y": 1.0, "vx": 0.5, "vy": 0.0},
            {"id": "B1", "team": "B", "x": 5.0, "y": -1.0, "vx": 0.0, "vy": -0.5},
        ],
    }
    for n, path in enumerate(values):
        *parents, key = path
        node = rec
        for p in parents:
            node = node[p]
        node[key] = f"@{n}@"
    line = json.dumps(rec)
    for n, text in enumerate(values.values()):
        line = line.replace(f'"@{n}@"', text)
    return line + "\n"


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(values=st.dictionaries(st.sampled_from(NUMERIC_FIELDS), JSON_VALUES, min_size=1, max_size=3))
def test_tracking_numbers_load_or_raise_schema_error(tmp_path, values):
    path = tmp_path / "t.jsonl"
    path.write_text(tracking_line(values), encoding="utf-8")
    try:
        frames = load_tracking(path)
    except SchemaError as exc:
        assert exc.path == str(path) and exc.line == 1
    else:
        assert len(frames) == 1


# features.csv: a fixed header, then rows of numbers in which one cell may be
# replaced by text that is no number, or that breaks the CSV (a quote, NUL, an
# embedded comma or line end). Cells are written unquoted.
TABLE_HEADER = "event_id,label,f0,f1,imputed_f0,imputed_f1\n"
NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-2.5", "nan", "inf", "-inf", "1e999", "-1e999", "5e-324"]),
    st.floats().map(repr),
)
ODD_CELLS = st.one_of(
    st.sampled_from(['"', "\x00", "1,2", "", "x", "2", " 1", "1_0", '"1,2"', "\r\n"]),
    st.text(max_size=3),
)


@st.composite
def feature_tables(draw) -> str:
    lines = [TABLE_HEADER]
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        cells = [f"e{i}", draw(st.sampled_from(["0", "1"])), *(draw(NUMBERS) for _ in range(4))]
        if draw(st.booleans()):
            cells[draw(st.integers(min_value=0, max_value=5))] = draw(ODD_CELLS)
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


@pytest.fixture(scope="module")
def table_model(tmp_path_factory):
    """A model over the fuzzed table's columns, and a small train config."""
    root = tmp_path_factory.mktemp("table_model")
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    table = PassSampleTable(["a", "b", "c", "d"], np.array([0, 1, 0, 1]), ["f0", "f1"], X)
    save_model(train_gbdt(table, GbdtHyperParams(n_trees=3, max_depth=2)), root / "model.json")
    cfg = root / "run.cfg"
    cfg.write_text("model.n_trees = 3\nmodel.max_depth = 2\ncv.k = 2\n", encoding="utf-8")
    return root / "model.json", cfg


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=feature_tables())
def test_feature_table_commands_exit_0_or_name_the_table(tmp_path, capsys, table_model, text):
    model, cfg = table_model
    path = tmp_path / "features.csv"
    path.write_text(text, encoding="utf-8", newline="")
    runs = [
        ["eval", "--model", str(model), "--features", str(path)],
        ["explain", "--model", str(model), "--features", str(path), "--out", str(tmp_path / "x")],
        ["train", "--config", str(cfg), "--features", str(path), "--out", str(tmp_path / "t")],
    ]
    for argv in runs:
        capsys.readouterr()
        rc = cli_dispatch(argv)
        err = capsys.readouterr().err
        assert rc in (0, 2), (argv[0], err)
        if rc == 2:
            assert f"data error: {path}" in err, (argv[0], err)


# events.jsonl: a synthetic match whose events get 1-3 fields replaced and,
# sometimes, two events swapped. A field value is the index of a tracking
# frame, ("frame", k), or JSON text, ("json", text): other ids, ints of any
# size, floats with nan and +-inf, bools, strings and null.
EVENT_FIELDS = ["frame", "team", "player", "type", "x", "y", "receiver", "outcome", "event_id"]
EVENT_VALUES = st.one_of(
    st.integers(min_value=0).map(lambda k: ("frame", k)),
    st.sampled_from(["A", "B", "A01", "B05", "E0001", "pass", "kickoff", "success", "failure"])
    .map(lambda s: ("json", json.dumps(s))),
    JSON_VALUES.map(lambda text: ("json", text)),
    st.sampled_from(["NaN", "Infinity", "-Infinity"]).map(lambda text: ("json", text)),
)


@st.composite
def event_edits(draw):
    """({(event position, field): value}, the positions of two events to swap or None)."""
    edits = draw(st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=10), st.sampled_from(EVENT_FIELDS)),
        EVENT_VALUES, min_size=1, max_size=3,
    ))
    swap = draw(st.none() | st.tuples(st.integers(0, 10), st.integers(0, 10)))
    return edits, swap


@pytest.fixture(scope="module")
def event_match(tmp_path_factory):
    """A synthetic match at the 2 m grid: its tracking file, event records
    and tracking frame indices."""
    root = tmp_path_factory.mktemp("event_match")
    cfg = root / "run.cfg"
    cfg.write_text("pitch.grid_cell = 2.0\nsynth.passes = 10\n", encoding="utf-8")
    assert cli_dispatch(["synth", "--config", str(cfg), "--out", str(root / "m")]) == 0
    events = (root / "m" / "events.jsonl").read_text(encoding="utf-8").splitlines()
    frames = [f.frame_index for f in load_tracking(root / "m" / "tracking.jsonl")]
    return cfg, root / "m" / "tracking.jsonl", [json.loads(line) for line in events], frames


def events_text(records: list[dict], edits: dict, swap, frames: list[int]) -> str:
    records = [dict(rec) for rec in records]
    texts = []
    for (i, key), (kind, value) in edits.items():
        records[i % len(records)][key] = f"@{len(texts)}@"
        texts.append(str(frames[value % len(frames)]) if kind == "frame" else value)
    if swap is not None:
        i, j = (k % len(records) for k in swap)
        records[i], records[j] = records[j], records[i]
    # one substitution pass, so that no inserted text is read as a placeholder
    return "".join(
        re.sub(r'"@(\d+)@"', lambda m: texts[int(m[1])], json.dumps(rec)) + "\n"
        for rec in records
    )


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edit=event_edits())
def test_event_commands_exit_0_or_2_and_segment_names_the_events(
    tmp_path, capsys, event_match, edit
):
    cfg, tracking, records, frames = event_match
    events = tmp_path / "events.jsonl"
    events.write_text(events_text(records, *edit, frames), encoding="utf-8")
    for command in ("features", "segment", "sync"):
        capsys.readouterr()
        rc = cli_dispatch([command, "--config", str(cfg), "--tracking", str(tracking),
                           "--events", str(events), "--out", str(tmp_path / command)])
        err = capsys.readouterr().err
        assert rc in (0, 2), (command, err)
        if command == "segment" and rc == 2:
            assert f"data error: {events}" in err, err


# model.json: one entry of one node array replaced by a value from a pool, or
# a subtree's covers zeroed with its ancestors' covers lowered, so that every
# cover sum still holds. "n" stands for the tree's node count.
NODE_ARRAYS = ["feature", "threshold", "left", "right", "value", "cover"]
NODE_VALUES = [0, -1, 1, "n", 2**63, 1e308, -1e308, 0.5, True, None, "x"]


@st.composite
def model_edits(draw):
    """("entry", tree, node, array, value) or ("zero_subtree", tree, node);
    tree and node are taken modulo the model's counts."""
    tree, node = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    if draw(st.booleans()):
        return ("zero_subtree", tree, node)
    return ("entry", tree, node, draw(st.sampled_from(NODE_ARRAYS)),
            draw(st.sampled_from(NODE_VALUES)))


def edited_model(doc: dict, edit) -> dict:
    doc = json.loads(json.dumps(doc))
    kind, t, node, *entry = edit
    tree = doc["trees"][t % len(doc["trees"])]
    n = len(tree["feature"])
    node %= n
    if kind == "entry":
        array, value = entry
        tree[array][node] = n if value == "n" else value
        return doc
    parent = {c: p for p, f in enumerate(tree["feature"]) if f >= 0
              for c in (tree["left"][p], tree["right"][p])}
    lost, stack = tree["cover"][node], [node]
    while stack:
        k = stack.pop()
        tree["cover"][k] = 0
        if tree["feature"][k] >= 0:
            stack += [tree["left"][k], tree["right"][k]]
    while node in parent:
        node = parent[node]
        tree["cover"][node] -= lost
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edit=model_edits())
def test_model_commands_exit_0_or_name_the_model(tmp_path, capsys, table_model, edit):
    model, _ = table_model
    path = tmp_path / "model.json"
    doc = edited_model(json.loads(model.read_text(encoding="utf-8")), edit)
    path.write_text(json.dumps(doc), encoding="utf-8")
    table = tmp_path / "features.csv"
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    PassSampleTable(["a", "b", "c", "d"], np.array([0, 1, 0, 1]), ["f0", "f1"], X).to_csv(table)
    out = tmp_path / "x"
    runs = [
        ["eval", "--model", str(path), "--features", str(table)],
        ["explain", "--model", str(path), "--features", str(table), "--out", str(out)],
    ]
    for argv in runs:
        capsys.readouterr()
        rc = cli_dispatch(argv)
        err = capsys.readouterr().err
        assert rc in (0, 2), (argv[0], err)
        if rc == 2:
            assert f"data error: {path}" in err, (argv[0], err)
        elif argv[0] == "explain":
            with open(out / "shap_summary.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row[1:]), rows


# Players for the partition: 1 to MAX_PLAYERS of them, each from one of the
# kinds that make ties, drawn from a subset of the kinds per example. A mirror
# pair sits about a row or a column of cell centres with its first player one
# ulp farther out, so that on that line the first is strictly farther in
# squared distance, though the two often round to one arrival time: the
# nearer second wins those cells. A copy repeats an earlier player, so the
# first player is of another kind; lattice players stand on whole metres; far
# players hold coordinates at or one ulp inside +-MAX_COORDINATE. Only random
# players move, and only some.
PLAYER_KINDS = ["random", "mirror", "copy", "lattice", "far"]
FAR = st.sampled_from(
    [s * m for s in (1.0, -1.0) for m in (MAX_COORDINATE, float(np.nextafter(MAX_COORDINATE, 0)))]
)


@st.composite
def partition_inputs(draw, kinds=st.lists(st.sampled_from(PLAYER_KINDS), min_size=1, unique=True)):
    """(pitch, motion, xy, vxy) of id-sorted players."""
    pitch = PitchSpec(grid_cell=draw(st.sampled_from([0.5, 0.75, 1.0, 2.0])))
    mp = MotionParams(reaction_time=draw(st.sampled_from([0.0, 0.2, 1e14])))
    half = (pitch.half_length, pitch.half_width)
    n = draw(st.integers(min_value=1, max_value=MAX_PLAYERS))
    kinds = draw(kinds)
    starts = [k for k in kinds if k != "copy"] or ["random"]
    rows = []  # (x, y, vx, vy)
    while len(rows) < n:
        kind = draw(st.sampled_from(kinds if rows else starts))
        if kind == "random":
            x, y = (draw(st.floats(-1.05 * h, 1.05 * h)) for h in half)
            moves = draw(st.booleans())
            vx, vy = (draw(st.floats(-9.0, 9.0)) if moves else 0.0 for _ in "xy")
            rows.append((x, y, vx, vy))
        elif kind == "mirror":
            axis = draw(st.integers(min_value=0, max_value=1))
            centres = pitch.cell_centers()[axis]
            centre = draw(st.sampled_from(centres[10:-10].tolist()))
            offset = draw(st.integers(min_value=1, max_value=12)) * pitch.grid_cell
            across = draw(st.floats(-half[1 - axis], half[1 - axis]))
            for along in (float(np.nextafter(centre - offset, -np.inf)), centre + offset):
                rows.append((along, across, 0.0, 0.0) if axis == 0 else (across, along, 0.0, 0.0))
        elif kind == "copy":
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "lattice":
            x, y = (float(draw(st.integers(min_value=-8, max_value=8))) for _ in "xy")
            rows.append((x, y, 0.0, 0.0))
        elif kind == "far":
            rows.append((draw(FAR | st.floats(-half[0], half[0])), draw(FAR), 0.0, 0.0))
    table = np.array(rows[:n])
    return pitch, mp, table[:, :2], table[:, 2:]


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(case=partition_inputs(kinds=st.just(["copy"])))
def test_copies_only_repeat_a_first_player_of_another_kind(case):
    _, _, xy, vxy = case
    assert (xy == xy[0]).all() and (vxy == vxy[0]).all()


def test_partition_matches_the_oracle_bitwise():
    # Cells whose two smallest squared distances are equal: count them.
    exact_ties = []

    # A mirror pair alone: on its line the squared distances differ by a few
    # ulps. At reaction time 1e14 s arrival times round to 1/64 s, so cells
    # whose squared distances differ by over 1 m^2 would tie in time too; the
    # nearer player owns them all.
    pair = np.array([[np.nextafter(-47.75, -np.inf), 0.0], [-46.75, 0.0]])

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(case=partition_inputs())
    @example(case=(PitchSpec(), MotionParams(reaction_time=0.0), pair, np.zeros((2, 2))))
    @example(case=(PitchSpec(), MotionParams(reaction_time=1e14), pair, np.zeros((2, 2))))
    def check(case):
        pitch, mp, xy, vxy = case
        want = oracle_partition(xy, vxy, pitch, mp)
        q = xy + vxy * mp.reaction_time
        got = _partition(q, pitch, 2)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        owner, best, second = _partition(q, pitch, 1)
        assert owner.tobytes() == want[0].tobytes() and best.tobytes() == want[1].tobytes()
        assert second is None
        exact_ties.append(int((got[1] == got[2]).sum()))
        rows = np.hstack([xy, vxy]).tolist()
        frame = make_frame([player(f"P{i:02d}", ATTACKING, *row) for i, row in enumerate(rows)])
        assert compute_dominance_grid(frame, pitch, mp).owner.tobytes() == want[0].tobytes()

    check()
    assert sum(exact_ties) > 0


# ---------------------------------------------------------------------------
# Metamorphic relations of feature extraction: a match and its transform must
# give the same features.csv bytes, and two copies of it its rows twice.
# ---------------------------------------------------------------------------

MATCH_PITCH = PitchSpec(grid_cell=2.0)
MATCH_FILES = ("tracking.jsonl", "events.jsonl")


@st.composite
def synthetic_matches(draw):
    """(frames, events, n, ranking variable) of a small synthetic match whose
    passes go to both teams. When the draw says so, the players stand still
    on whole metres, so that cells equidistant from two players are common."""
    config = SynthConfig(passes=60, opponent_pass_rate=0.3)
    frames, events, _ = synthesize_match(config, draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        frames = [f.with_players(xy=np.round(f.xy), vxy=np.zeros_like(f.vxy)) for f in frames]
    return frames, events, draw(st.integers(1, 4)), draw(st.sampled_from(RANKING_VARIABLES))


def features_csv(tmp_path, frames, events, n, ranking) -> bytes:
    table, _ = build_dataset([(frames, events)], n, ranking, MATCH_PITCH, MotionParams(), WeightParams())
    table.to_csv(tmp_path / "features.csv")
    return (tmp_path / "features.csv").read_bytes()


def reversed_rows(frame: TrackedFrame) -> TrackedFrame:
    """The frame with its player rows in reverse file order."""
    return TrackedFrame(
        frame.frame_index, frame.time, frame.ball, frame.ids[::-1], frame.teams[::-1],
        frame.xy[::-1], frame.vxy[::-1], frame.metadata, frame.extras,
    )


def mirrored_frame(frame: TrackedFrame) -> TrackedFrame:
    """The frame mirrored in x, the other team now attacking right."""
    other = ({"A", "B"} - {frame.metadata.attacks_right_team}).pop()
    pos, vel = frame.ball.pos, frame.ball.vel
    mirrored = frame.with_players(
        xy=frame.xy * (-1.0, 1.0),
        vxy=frame.vxy * (-1.0, 1.0),
        ball=Ball(Point2(-pos.x, pos.y), Point2(-vel.x, vel.y)),
    )
    return replace(mirrored, metadata=replace(frame.metadata, attacks_right_team=other))


RELATION_SETTINGS = settings(
    max_examples=12,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@RELATION_SETTINGS
@given(match=synthetic_matches())
def test_features_ignore_the_order_of_player_rows(tmp_path, match):
    frames, events, n, ranking = match
    want = features_csv(tmp_path, frames, events, n, ranking)
    assert features_csv(tmp_path, [reversed_rows(f) for f in frames], events, n, ranking) == want


@RELATION_SETTINGS
@given(match=synthetic_matches())
def test_features_ignore_a_mirror_in_x(tmp_path, match):
    frames, events, n, ranking = match
    want = features_csv(tmp_path, frames, events, n, ranking)
    mirrored_events = [replace(e, pos=Point2(-e.pos.x, e.pos.y)) for e in events]
    got = features_csv(tmp_path, [mirrored_frame(f) for f in frames], mirrored_events, n, ranking)
    assert got == want


def relabelled(frames, events, shift):
    """The match with `shift` added to every frame number, and each player id
    renamed so that the ids keep their sort order."""
    ids = sorted({pid for f in frames for pid in f.ids} | {e.player for e in events}
                 | {e.receiver for e in events if e.receiver is not None})
    new = {pid: f"p{rank:03d}" for rank, pid in enumerate(ids)}
    frames = [
        replace(f, frame_index=f.frame_index + shift, ids=tuple(new[p] for p in f.ids),
                extras={new[p]: extra for p, extra in f.extras.items()})
        for f in frames
    ]
    events = [replace(e, frame=e.frame + shift, player=new[e.player], receiver=new.get(e.receiver))
              for e in events]
    return frames, events


@RELATION_SETTINGS
@given(match=synthetic_matches(), shift=st.integers(-10**6, 10**6))
def test_features_ignore_frame_numbers_and_player_names(tmp_path, match, shift):
    frames, events, n, ranking = match
    want = features_csv(tmp_path, frames, events, n, ranking)
    assert features_csv(tmp_path, *relabelled(frames, events, shift), n, ranking) == want


@RELATION_SETTINGS
@given(match=synthetic_matches())
def test_features_of_two_copies_of_a_match_repeat_its_rows(tmp_path, match):
    frames, events, n, ranking = match
    header, *rows = features_csv(tmp_path, frames, events, n, ranking).splitlines(keepends=True)
    for name in ("m1", "m2"):
        (tmp_path / "matches" / name).mkdir(parents=True, exist_ok=True)
        save_match(frames, events, *(tmp_path / "matches" / name / f for f in MATCH_FILES))
    (tmp_path / "run.cfg").write_text(f"pitch.grid_cell = {MATCH_PITCH.grid_cell}\n", encoding="utf-8")
    rc = cli_dispatch(["features", "--config", str(tmp_path / "run.cfg"), "--n", str(n),
                       "--ranking", ranking, "--matches", str(tmp_path / "matches"),
                       "--out", str(tmp_path / "out")])
    assert rc == 0
    want = header + b"".join(name + row for name in (b"m1/", b"m2/") for row in rows)
    assert (tmp_path / "out" / "features.csv").read_bytes() == want


# ---------------------------------------------------------------------------
# Metamorphic relations of rendering: a match and its transform must give the
# same SVG bytes for every pass frame.
# ---------------------------------------------------------------------------


def pass_frame_svgs(frames, events) -> list[str]:
    """The SVG text of each pass frame, oriented for the passing team, with
    the region boundaries drawn."""
    by_index = {f.frame_index: f for f in frames}
    opts = RenderOptions(show_voronoi_boundaries=True)
    docs = []
    for e in events:
        if e.type != "pass":
            continue
        oriented = orient_frame(by_index[e.frame], e.team)
        excluded = offside_positions(oriented)
        field_ = compute_dominance_grid(oriented, MATCH_PITCH, MotionParams(), excluded)
        scores = space_scores(field_, oriented, WeightParams())
        docs.append(render_frame_svg(oriented, scores, field_, opts))
    return docs


@RELATION_SETTINGS
@given(match=synthetic_matches())
def test_render_ignores_the_order_of_player_rows(match):
    frames, events, *_ = match
    want = pass_frame_svgs(frames, events)
    assert want and pass_frame_svgs([reversed_rows(f) for f in frames], events) == want


@RELATION_SETTINGS
@given(match=synthetic_matches())
def test_render_ignores_a_mirror_in_x(match):
    frames, events, *_ = match
    want = pass_frame_svgs(frames, events)
    assert want and pass_frame_svgs([mirrored_frame(f) for f in frames], events) == want
