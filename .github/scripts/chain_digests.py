"""sha256 digests of the criterion-10 CLI chain's artifacts, and a report of two runs.

    python .github/scripts/chain_digests.py run OUT_DIR DIGESTS_JSON
    python .github/scripts/chain_digests.py compare BASE_JSON HEAD_JSON

`run` executes the chain of test_criterion_10_pipeline_determinism in
tests/test_acceptance.py (synth, features, train, eval, explain, render), then
compare-rankings, segment and sync on the same match, so that every
subcommand runs, all with the same config, into OUT_DIR. It uses the
pitchspace package found on PYTHONPATH and writes {artifact path: sha256} to
DIGESTS_JSON. `compare` prints a Markdown list of the artifacts whose digests
differ, or that only one run wrote. Both exit 0 whatever they find: the report
is for a reader, and a declared behaviour change may change artifacts.
"""

import hashlib
import json
import sys
from pathlib import Path

CONFIG = (
    "pitch.grid_cell = 2.0\n"
    "synth.passes = 80\n"
    "synth.kickoff_frames = 60\n"
    "model.max_depth = 3\nmodel.learning_rate = 0.2\nmodel.n_trees = 30\n"
    "cv.k = 3\n"
)


def run(out: Path, digests_path: Path) -> None:
    import pitchspace
    from pitchspace.cli import cli_dispatch

    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "run.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
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
    codes = {}
    for argv in steps:
        codes[argv[0]] = cli_dispatch([argv[0], "--config", str(cfg), *argv[1:]])
    digests = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p != cfg
    }
    doc = {"package": pitchspace.__file__, "exit_codes": codes, "digests": digests}
    digests_path.write_text(json.dumps(doc, indent=1))


def compare(base_path: Path, head_path: Path) -> None:
    base, head = (json.loads(p.read_text()) for p in (base_path, head_path))
    print("### Criterion-10 chain artifacts against the base branch (report only)\n")
    for name, doc in (("base", base), ("head", head)):
        print(f"- {name}: `{doc['package']}`")
        failed = {cmd: code for cmd, code in doc["exit_codes"].items() if code != 0}
        if failed:
            print(f"- {name}: commands exited non-zero: {failed}")
    b, h = base["digests"], head["digests"]
    lines = [f"- `{k}`: sha256 differs" for k in sorted(set(b) & set(h)) if b[k] != h[k]]
    lines += [f"- `{k}`: only on the base branch" for k in sorted(set(b) - set(h))]
    lines += [f"- `{k}`: only on this branch" for k in sorted(set(h) - set(b))]
    print("\n" + ("\n".join(lines) if lines else f"All {len(h)} artifacts are byte-identical."))


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("run", "compare"):
        sys.exit(__doc__)
    (run if sys.argv[1] == "run" else compare)(Path(sys.argv[2]), Path(sys.argv[3]))
