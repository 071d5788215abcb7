"""Property tests at the input boundaries: whatever a record holds, loading
either accepts it or raises a located SchemaError, never anything else; and
whatever a feature table holds, the commands that read it exit 0 or with a
data error that names it.

Runs are derandomized and small, so the suite stays deterministic and quick.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from pitchspace.cli import cli_dispatch  # noqa: E402
from pitchspace.features import PassSampleTable  # noqa: E402
from pitchspace.gbdt import GbdtHyperParams, save_model, train_gbdt  # noqa: E402
from pitchspace.match_io import SchemaError, load_tracking  # noqa: E402

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
