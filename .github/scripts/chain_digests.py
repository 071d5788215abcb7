"""sha256 digests of the criterion-10 CLI chain's artifacts, and a report of two runs.

    python .github/scripts/chain_digests.py run OUT_DIR DIGESTS_JSON
    python .github/scripts/chain_digests.py compare BASE_JSON HEAD_JSON

`run` executes the chain of test_criterion_10_pipeline_determinism in
tests/test_acceptance.py (synth, features, train, eval, explain, render), then
compare-rankings, segment and sync on the same match, so that every
subcommand runs, all with the same config, into OUT_DIR. Since that match has
a single attack sequence, it then synthesizes a second match whose passes go
to both teams (synth.opponent_pass_rate = 0.4) and segments it, which writes
several sequences and drop records. Then `features --n 10` on the first
match writes the padded table: ten attackers leave at most nine candidates
per pass, so the rank-10 columns hold no finite value; `train` fits a model
on it. Then `features --matches` reads a directory holding copies of the
two matches, which it loads one at a time, keying each row by its match
directory. Last, `render` draws the first match's frames again at the
default 0.5 m grid with render.show_voronoi_boundaries = true, once plain
and once with `--animate`, so that the owner grid at full resolution and
the boundary paths reach a digest. Exit codes are keyed by command name,
prefixed "opponent-", "padded-", "matches-", "render-" and
"render-animate-" for these groups.
It uses the pitchspace package found on PYTHONPATH and writes {artifact
path: sha256} to DIGESTS_JSON, with OUT_DIR. `compare`
prints a Markdown list of the artifacts whose digests differ, or that only one
run wrote. For a differing `.csv` artifact whose two files are still in their
runs' OUT_DIRs, it also names the columns that differ, each with its largest
relative change |head - base| / max(|base|, |head|) over the rows. Both exit 0
whatever they find: the report is for a reader, and a declared behaviour
change may change artifacts.
"""

import csv
import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

CONFIG = (
    "pitch.grid_cell = 2.0\n"
    "synth.passes = 80\n"
    "synth.kickoff_frames = 60\n"
    "model.max_depth = 3\nmodel.learning_rate = 0.2\nmodel.n_trees = 30\n"
    "cv.k = 3\n"
)
OPPONENT_CONFIG = CONFIG + "synth.opponent_pass_rate = 0.4\n"
RENDER_CONFIG = "render.show_voronoi_boundaries = true\n"  # the default 0.5 m grid


def run(out: Path, digests_path: Path) -> None:
    import pitchspace
    from pitchspace.cli import cli_dispatch

    out.mkdir(parents=True, exist_ok=True)
    cfg, opp_cfg, render_cfg = out / "run.cfg", out / "opponent.cfg", out / "render.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    opp_cfg.write_text(OPPONENT_CONFIG, encoding="utf-8")
    render_cfg.write_text(RENDER_CONFIG, encoding="utf-8")
    opp = out / "opponent-match"
    m = out / "match"
    feat, model = out / "feat" / "features.csv", out / "model" / "model.json"
    match_args = ["--tracking", str(m / "tracking.jsonl"), "--events", str(m / "events.jsonl")]
    steps = [
        ["synth", "--seed", "7", "--out", str(m)],
        ["features", *match_args, "--out", str(out / "feat")],
        ["train", "--features", str(feat), "--out", str(out / "model")],
        ["eval", "--model", str(model), "--features", str(feat), "--out", str(out / "eval")],
        ["explain", "--model", str(model), "--features", str(feat), "--per-row",
         "--out", str(out / "explain")],
        ["render", *match_args, "--frames", "111:141", "--out", str(out / "render")],
        ["compare-rankings", *match_args, "--out", str(out / "rankings")],
        ["segment", *match_args, "--out", str(out / "segment")],
        ["sync", *match_args, "--out", str(out / "sync")],
    ]
    opp_steps = [
        ["synth", "--seed", "7", "--out", str(opp)],
        ["segment", "--tracking", str(opp / "tracking.jsonl"), "--events",
         str(opp / "events.jsonl"), "--out", str(out / "opponent-segment")],
    ]
    padded_steps = [
        ["features", *match_args, "--n", "10", "--out", str(out / "padded-feat")],
        ["train", "--features", str(out / "padded-feat" / "features.csv"),
         "--out", str(out / "padded-model")],
    ]
    matches = out / "matches"
    matches_steps = [["features", "--matches", str(matches), "--out", str(out / "matches-feat")]]
    render_args = ["render", *match_args, "--frames", "111:141"]
    codes = {}

    def run_group(config, prefix, chain):
        for argv in chain:
            codes[prefix + argv[0]] = cli_dispatch([argv[0], "--config", str(config), *argv[1:]])

    run_group(cfg, "", steps)
    run_group(opp_cfg, "opponent-", opp_steps)
    run_group(cfg, "padded-", padded_steps)
    for i, match in enumerate((m, opp)):
        (matches / f"m{i}").mkdir(parents=True)
        for name in ("tracking.jsonl", "events.jsonl"):
            shutil.copyfile(match / name, matches / f"m{i}" / name)
    run_group(cfg, "matches-", matches_steps)
    run_group(render_cfg, "render-", [[*render_args, "--out", str(out / "render-plain")]])
    run_group(render_cfg, "render-animate-",
              [[*render_args, "--animate", "--out", str(out / "render-animate")]])
    digests = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p not in (cfg, opp_cfg, render_cfg)
    }
    doc = {"package": pitchspace.__file__, "out": str(out), "exit_codes": codes, "digests": digests}
    digests_path.write_text(json.dumps(doc, indent=1))


def relative_change(a: str, b: str) -> float:
    """|b - a| / max(|a|, |b|) for two numeric cells; inf if either is not a
    finite number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return 0.0 if x == y else abs(y - x) / max(abs(x), abs(y))


def csv_changes(base_file: Path, head_file: Path) -> str:
    """The columns of two CSV files whose cells differ, each with its largest
    relative change ("text" where a changed cell is not a finite number)."""
    tables = []
    for path in (base_file, head_file):
        with open(path, newline="", encoding="utf-8") as fh:
            tables.append(list(csv.reader(fh)))
    base, head = tables
    if not base or base[0] != head[0] or [len(r) for r in base] != [len(r) for r in head]:
        return "the header or the table's shape differs"
    changed = []
    for j, name in enumerate(base[0]):
        worst = max((relative_change(b[j], h[j]) for b, h in zip(base, head) if b[j] != h[j]),
                    default=None)
        if worst is not None:
            changed.append(f"`{name}` {'text' if worst == math.inf else f'{worst:.2g}'}")
    return "columns " + ", ".join(changed) if changed else "no cell differs"


def compare(base_path: Path, head_path: Path) -> None:
    base, head = (json.loads(p.read_text()) for p in (base_path, head_path))
    print("### Criterion-10 chain artifacts against the base branch (report only)\n")
    for name, doc in (("base", base), ("head", head)):
        print(f"- {name}: `{doc['package']}`")
        failed = {cmd: code for cmd, code in doc["exit_codes"].items() if code != 0}
        if failed:
            print(f"- {name}: commands exited non-zero: {failed}")
    b, h = base["digests"], head["digests"]
    lines = []
    for k in sorted(set(b) & set(h)):
        if b[k] != h[k]:
            files = [Path(doc["out"]) / k for doc in (base, head) if "out" in doc]
            csvs = k.endswith(".csv") and len(files) == 2 and all(f.is_file() for f in files)
            lines.append(f"- `{k}`: sha256 differs" + (f"; {csv_changes(*files)}" if csvs else ""))
    lines += [f"- `{k}`: only on the base branch" for k in sorted(set(b) - set(h))]
    lines += [f"- `{k}`: only on this branch" for k in sorted(set(h) - set(b))]
    print("\n" + ("\n".join(lines) if lines else f"All {len(h)} artifacts are byte-identical."))


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("run", "compare"):
        sys.exit(__doc__)
    (run if sys.argv[1] == "run" else compare)(Path(sys.argv[2]), Path(sys.argv[3]))
