"""Command-line surface for the pipeline.

Subcommands: synth, sync, segment, features, train, eval, explain,
compare-rankings, render. Exit codes: 0 success, 1 usage/config error,
2 data error, 3 internal error. Every run with --out writes a manifest
(command, config hash, seed, input digests, output names) into the output
directory: each subcommand returns its effective seed, the paths it read and
the names it wrote, and cli_dispatch writes manifest.json from them.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from . import config as cfgmod
from . import explain as explainmod
from . import gbdt as gbdtmod
from .config import ConfigError, RunConfig
from .dominance import compute_dominance_grid, offside_positions, space_scores
from .features import (
    RANKING_VARIABLES,
    PassSampleTable,
    build_dataset,
    column_names,
    orient_frame,
)
from .match_io import (
    SchemaError,
    apply_shift,
    load_match,
    located,
    save_match,
    segment_attack_sequences,
    synchronization_shift,
    write_json,
)
from .render_svg import render_animation_svg, render_frame_svg
from .synth import synthesize_match

logger = logging.getLogger("pitchspace")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); we map usage -> 1
        raise UsageError(message)


def _sha256(data: bytes) -> str:
    import hashlib  # loads OpenSSL; only runs that write a manifest need it

    return hashlib.sha256(data).hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    seed: int | None,
    config_path: str | None,
    inputs: list[Path],
    outputs: list[str],
) -> None:
    # Keys stay relative (basename, parent-qualified on collision) so reruns
    # into different directories produce byte-identical manifests.
    names = [p.name for p in inputs]
    digests = {}
    for p in sorted(inputs, key=lambda p: (p.parent.name, p.name)):
        key = p.name if names.count(p.name) == 1 else f"{p.parent.name}/{p.name}"
        digests[key] = _sha256(p.read_bytes())
    config = b"<defaults>" if config_path is None else Path(config_path).read_bytes()
    doc = {
        "command": command,
        "seed": seed,
        "config_sha256": _sha256(config),
        "inputs": digests,
        "outputs": sorted(outputs),
    }
    write_json(out_dir / "manifest.json", doc, indent=2)


def _match_dirs(root: Path) -> list[Path]:
    """A match directory holds tracking.jsonl + events.jsonl; accept either a
    single match directory or a directory of them."""
    if (root / "tracking.jsonl").exists():
        return [root]
    dirs = sorted(d for d in root.iterdir() if d.is_dir() and (d / "tracking.jsonl").exists())
    if not dirs:
        raise SchemaError("no tracking.jsonl in it or in any subdirectory", root)
    return dirs


def _load_matches(args) -> tuple[Iterator, list[Path]]:
    """The matches of --matches, or of --tracking/--events, as an iterator that
    loads each one only when it is reached; and the paths of their files.
    Under --matches each event id becomes `<match directory name>/<event_id>`,
    so that matches reusing ids give distinct rows."""
    if args.matches:
        dirs = _match_dirs(Path(args.matches))
        pairs = [(d / "tracking.jsonl", d / "events.jsonl") for d in dirs]
        prefixes = [f"{d.resolve().name}/" for d in dirs]
    elif args.tracking and args.events:
        pairs = [(args.tracking, args.events)]
        prefixes = [""]
    else:
        raise UsageError("provide --tracking/--events or --matches")

    def load(tracking, events, prefix):
        frames, events = load_match(tracking, events)
        if prefix:
            events = [replace(e, event_id=prefix + e.event_id) for e in events]
        return frames, events

    matches = (load(t, e, prefix) for (t, e), prefix in zip(pairs, prefixes))
    return matches, [Path(p) for pair in pairs for p in pair]


# ---------------------------------------------------------------------------
# Subcommands: each takes (args, config, out directory or None) and returns
# (effective seed, input paths, output names) for the manifest.
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg: RunConfig, out: Path):
    seed = args.seed if args.seed is not None else 7
    frames, events, ground_truth = synthesize_match(cfg.synth, seed, cfg.motion)
    save_match(frames, events, out / "tracking.jsonl", out / "events.jsonl")
    write_json(out / "ground_truth.json", ground_truth, indent=1)
    print(f"synth: wrote {len(frames)} frames, {len(events)} events to {out}")
    return (
        seed,
        [out / "tracking.jsonl", out / "events.jsonl"],
        ["tracking.jsonl", "events.jsonl", "ground_truth.json"],
    )


def cmd_sync(args, cfg: RunConfig, out: Path):
    frames, events = load_match(args.tracking, args.events)
    with located(args.tracking):  # such as repeated timestamps in a kickoff window
        shifts = synchronization_shift(frames, events)
    shifted = apply_shift(events, shifts, frames)
    save_match(frames, shifted, out / "tracking.jsonl", out / "events.jsonl")
    write_json(out / "sync_report.json", {"shifts": {str(k): v for k, v in shifts.items()}}, indent=2)
    print(f"sync: shifts {shifts}")
    return (
        args.seed,
        [Path(args.tracking), Path(args.events)],
        ["tracking.jsonl", "events.jsonl", "sync_report.json"],
    )


def cmd_segment(args, cfg: RunConfig, out: Path):
    frames, events = load_match(args.tracking, args.events)
    with located(args.events):  # events out of frame order
        sequences, drops = segment_attack_sequences(events, frames)
    doc = {"sequences": [asdict(s) for s in sequences], "dropped": [asdict(d) for d in drops]}
    write_json(out / "sequences.json", doc, indent=1)
    print(f"segment: {len(sequences)} sequences, {len(drops)} drop records")
    return args.seed, [Path(args.tracking), Path(args.events)], ["sequences.json"]


def cmd_features(args, cfg: RunConfig, out: Path):
    matches, inputs = _load_matches(args)
    n, ranking = cfg.feature_n, cfg.ranking_variable
    with located(args.matches or args.events):
        table, _ = build_dataset(matches, n, ranking, cfg.pitch, cfg.motion, cfg.weight)
    table.to_csv(out / "features.csv")
    print(
        f"features: {len(table)} pass samples, {len(table.columns)} columns "
        f"(n={n}, ranked by {ranking})"
    )
    return args.seed, inputs, ["features.csv"]


def cmd_train(args, cfg: RunConfig, out: Path):
    table = PassSampleTable.from_csv(args.features)
    seed = cfg.cv_seed
    with located(args.features):  # its rows refused, such as a class too small for the folds
        best_hp, results = gbdtmod.grid_search_cv(table, cfg.grid, k=cfg.cv_k, seed=seed)
        model = gbdtmod.train_gbdt(table, best_hp)
    gbdtmod.save_model(model, out / "model.json")
    write_json(
        out / "cv_results.json",
        [{**asdict(r), "best": r.hyperparams == best_hp} for r in results],
        indent=1,
    )
    best = max(r.mean_accuracy for r in results)
    print(f"train: grid of {len(results)} configs, best CV accuracy {best:.3f}")
    print(
        f"train: best config depth={best_hp.max_depth} lr={best_hp.learning_rate} "
        f"trees={best_hp.n_trees}"
    )
    return seed, [Path(args.features)], ["model.json", "cv_results.json"]


def _model_and_table(args) -> tuple[gbdtmod.GbdtModel, PassSampleTable]:
    """The --model model and the --features table, refused unless it holds the model's columns."""
    model = gbdtmod.load_model(args.model)
    table = PassSampleTable.from_csv(args.features)
    if table.columns != model.feature_names:
        raise SchemaError(
            f"feature columns {table.columns[:3]}... do not match the model's", args.features
        )
    return model, table


def cmd_eval(args, cfg: RunConfig, out: Path | None):
    model, table = _model_and_table(args)
    probs = model.predict_proba_batch(table.raw)
    report = gbdtmod.classification_metrics(table.labels, probs, threshold=cfg.threshold)
    n = len(model.feature_names) // 5
    label = f"n={n}" if model.feature_names == column_names(n) else "custom"
    print(gbdtmod.format_metrics_table({label: report}))
    if out is not None:
        write_json(out / "metrics.json", asdict(report), indent=2)
    return args.seed, [Path(args.model), Path(args.features)], ["metrics.json"]


def cmd_explain(args, cfg: RunConfig, out: Path):
    model, table = _model_and_table(args)
    with located(args.model):  # such as a leaf path over too many features
        phi, base = explainmod.shap_values(model, table.raw)
        try:
            summary = explainmod.ImportanceSummary.from_phi(model.feature_names, phi)
        except OverflowError as exc:
            raise SchemaError(f"leaf values too large for this table: {exc}") from None
    summary.to_csv(out / "shap_summary.csv")
    outputs = ["shap_summary.csv"]
    if args.per_row:
        margins = model.margin(table.raw)
        with open(out / "attributions.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["event_id", "base_value", "margin", *model.feature_names])
            for i, eid in enumerate(table.event_ids):
                row = [eid, repr(float(base)), repr(float(margins[i]))]
                writer.writerow(row + [repr(float(v)) for v in phi[i]])
        outputs.append("attributions.csv")
    print(f"explain: top feature by mean |phi| is {summary.top_feature()}")
    return args.seed, [Path(args.model), Path(args.features)], outputs


def cmd_compare_rankings(args, cfg: RunConfig, out: Path | None):
    matches, inputs = _load_matches(args)
    n, seed = cfg.feature_n, cfg.cv_seed
    with located(args.matches or args.events):
        report = gbdtmod.compare_ranking_variables(
            matches, n, cfg.grid, cfg.cv_k, seed, cfg.pitch, cfg.motion, cfg.weight
        )
    print(gbdtmod.format_ranking_table(report))
    if out is not None:
        write_json(out / "ranking_report.json", asdict(report), indent=1)
    return seed, inputs, ["ranking_report.json"]


def cmd_render(args, cfg: RunConfig, out: Path):
    frames, events = load_match(args.tracking, args.events)
    first, last = args.frames or (None, None)  # frame indices increase strictly
    first = frames[0].frame_index if first is None else first
    last = frames[-1].frame_index if last is None else last
    selected = [f for f in frames if first <= f.frame_index <= last]
    if not selected:
        raise SchemaError("no frames in the requested range", args.tracking)

    prepared = []  # (oriented frame, score table, field) per selected frame
    for f in selected:
        team = args.attacking_team or f.metadata.attacking_team_id
        if team is None:
            raise SchemaError(
                f"frame {f.frame_index}: no attacking team marker; pass --attacking-team",
                args.tracking,
            )
        oriented = orient_frame(f, team)
        excluded = offside_positions(oriented)
        if excluded.issuperset(oriented.ids):
            raise SchemaError(
                f"frame {f.frame_index}: every player is offside-excluded, so no player "
                "is eligible for the dominance grid",
                args.tracking,
            )
        fld = compute_dominance_grid(oriented, cfg.pitch, cfg.motion, excluded)
        prepared.append((oriented, space_scores(fld, oriented, cfg.weight), fld))

    opts = cfg.render
    if opts.score_min is None or opts.score_max is None:
        pooled = [e.score for _, table, _ in prepared for e in table if not e.excluded_offside]
        lo, hi = np.percentile(np.array(pooled), [5.0, 95.0])
        lo = float(lo) if opts.score_min is None else opts.score_min
        hi = float(hi) if opts.score_max is None else opts.score_max
        opts = replace(opts, score_min=lo, score_max=hi if lo < hi else lo + 1.0)
    outputs, docs = [], []  # docs: only --animate splices the frames into one document
    for oriented, scores, fld in prepared:
        doc = render_frame_svg(oriented, scores, fld, opts)
        if args.animate:
            docs.append(doc)
        else:
            name = f"frame_{oriented.frame_index:06d}.svg"
            (out / name).write_text(doc, encoding="utf-8")
            outputs.append(name)
    if args.animate:
        anim = render_animation_svg(docs, frame_seconds=0.2)
        (out / "animation.svg").write_text(anim, encoding="utf-8")
        outputs.append("animation.svg")
    print(f"render: wrote {len(outputs)} file(s) to {out}")
    return args.seed, [Path(args.tracking), Path(args.events)], outputs


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _frame_range(text: str) -> tuple[int | None, int | None]:
    """--frames "lo:hi"; an omitted end means the first or last frame."""
    a, _, b = text.partition(":")
    try:
        return (int(a) if a else None, int(b) if b else None)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi with integer ends, got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="pitchspace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="run config file (defaults if omitted)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("synth", help="generate a deterministic synthetic match")
    common(p)
    p.set_defaults(func=cmd_synth, needs_out=True)

    p = sub.add_parser("sync", help="align event frames to tracking via kickoff detection")
    common(p)
    p.add_argument("--tracking", required=True)
    p.add_argument("--events", required=True)
    p.set_defaults(func=cmd_sync, needs_out=True)

    p = sub.add_parser("segment", help="split events into attack sequences")
    common(p)
    p.add_argument("--tracking", required=True)
    p.add_argument("--events", required=True)
    p.set_defaults(func=cmd_segment, needs_out=True)

    p = sub.add_parser("features", help="build the pass-sample feature table")
    common(p)
    p.add_argument("--tracking")
    p.add_argument("--events")
    p.add_argument("--matches", help="directory of match directories")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--ranking", default=None, choices=RANKING_VARIABLES)
    p.set_defaults(func=cmd_features, needs_out=True)

    p = sub.add_parser("train", help="grid-search CV and fit the final model")
    common(p)
    p.add_argument("--features", required=True)
    p.set_defaults(func=cmd_train, needs_out=True)

    p = sub.add_parser("eval", help="classification metrics for a model on a table")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.set_defaults(func=cmd_eval, needs_out=False)

    p = sub.add_parser("explain", help="Shapley attribution summary")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--per-row", action="store_true", dest="per_row")
    p.set_defaults(func=cmd_explain, needs_out=True)

    p = sub.add_parser("compare-rankings", help="CV accuracy per ranking variable")
    common(p)
    p.add_argument("--tracking")
    p.add_argument("--events")
    p.add_argument("--matches")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_compare_rankings, needs_out=False)

    p = sub.add_parser("render", help="render space-score frames to SVG")
    common(p)
    p.add_argument("--tracking", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--frames", type=_frame_range, help="frame range lo:hi (inclusive)")
    p.add_argument("--attacking-team", dest="attacking_team", default=None)
    p.add_argument("--animate", action="store_true")
    p.set_defaults(func=cmd_render, needs_out=True)

    return parser


# command-line option -> the RunConfig field whose checks its value goes through
_CLI_FIELDS = {"n": "feature_n", "seed": "cv_seed", "ranking": "ranking_variable"}


def _with_cli_values(cfg: RunConfig, args) -> RunConfig:
    """cfg with the values of --n, --seed and --ranking, checked as feature.n,
    cv.seed and feature.ranking_variable are."""
    for option, name in _CLI_FIELDS.items():
        value = getattr(args, option, None)
        if value is not None:
            try:
                cfg = replace(cfg, **{name: value})
            except ValueError as exc:
                raise UsageError(f"--{option}: {exc}") from None
    return cfg


def cli_dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code. A failed
    command removes the --out directories it created that are still empty."""
    made: list[Path] = []  # the directories this invocation creates, deepest first
    code = _dispatch(argv, made)
    if code != EXIT_OK:
        for path in made:
            try:
                path.rmdir()
            except FileNotFoundError:
                continue
            except OSError:
                break  # not empty: keep it and its parents
    return code


def _dispatch(argv: list[str], made: list[Path]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        if args.needs_out and not args.out:
            raise UsageError(f"{args.command}: --out is required")
        cfg = _with_cli_values(cfgmod.load_config(args.config), args)
        out = Path(args.out) if args.out else None
        if out is not None:
            made.extend(p for p in (out, *out.parents) if not p.exists())
            out.mkdir(parents=True, exist_ok=True)
        seed, inputs, outputs = args.func(args, cfg, out)
        if out is not None:
            _write_manifest(out, args.command, seed, args.config, inputs, outputs)
        return EXIT_OK
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print("run 'pitchspace --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
