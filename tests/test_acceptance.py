"""Acceptance suite: one test per release criterion, with its stated tolerance.

Each test prints a `criterion N: PASS/FAIL` line. The heavyweight pieces
(the 2,000-pass synthetic corpus and its feature table) are built once per
session and shared.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from pitchspace.cli import cli_dispatch
from pitchspace.dominance import (
    ATTACKING,
    MotionParams,
    compute_dominance_grid,
    space_scores,
)
from pitchspace.explain import shap_summary, shap_values, tree_shap
from pitchspace.features import (
    assemble_table,
    extract_event_features,
    passline_interception_time,
)
from pitchspace.gbdt import (
    GbdtHyperParams,
    classification_metrics,
    compare_ranking_variables,
    format_metrics_table,
    grid_search_cv,
    train_gbdt,
)
from pitchspace.match_io import detect_kickoff_frame
from pitchspace.pitch import PitchSpec, Point2, WeightParams
from pitchspace.synth import SynthConfig, synthesize_match

from conftest import make_frame, player, random_frame
from test_explain import brute_force_shapley
from test_gbdt import decision_paths

MP = MotionParams()
W = WeightParams()
FINE = PitchSpec(grid_cell=0.5)

# Feature extraction for the end-to-end corpus runs on a 1 m grid: the
# resolution criteria (1-3) pin 0.5 m / 0.25 m explicitly, the recovery
# criterion does not, and 1 m keeps the full pipeline inside its time budget.
CORPUS_PITCH = PitchSpec(grid_cell=1.0)
CORPUS_RULE_COEF = {"dist_ball": -0.2}
CORPUS_HP = GbdtHyperParams(n_trees=50, max_depth=3, learning_rate=0.2)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def corpus():
    cfg = SynthConfig(passes=2000, rule_intercept=2.0, rule_coeffs=dict(CORPUS_RULE_COEF))
    return synthesize_match(cfg, seed=2024)


@pytest.fixture(scope="session")
def corpus_features(corpus):
    frames, events, _ = corpus
    return extract_event_features(frames, events, CORPUS_PITCH, MP, W)


@pytest.fixture(scope="session")
def corpus_table(corpus_features):
    return assemble_table(corpus_features, 3, "dist_ball")


@pytest.fixture(scope="session")
def corpus_model(corpus_table):
    return train_gbdt(corpus_table, CORPUS_HP)


def test_criterion_1_dominance_partition(rng):
    t0 = time.perf_counter()
    violations = 0
    total_cells = FINE.nx * FINE.ny
    for _ in range(100):
        frame = random_frame(rng)
        field = compute_dominance_grid(frame, FINE, MP)
        counts = field.owned_cell_counts()
        if sum(counts.values()) != total_cells:
            violations += 1
        if field.owner.min() < 0 or field.owner.max() >= len(field.player_ids):
            violations += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        violations == 0 and elapsed < 10.0,
        f"100 frames at 0.5 m: {violations} partition violations, {elapsed:.2f}s (< 10 s)",
    )


def test_criterion_2_classical_voronoi_degeneracy(rng):
    mp0 = MotionParams(reaction_time=0.0, max_speed=7.8)
    xs, ys = FINE.cell_centers()
    cells = np.column_stack([np.repeat(ys, FINE.nx), np.tile(xs, FINE.ny)])  # (C, [y,x])
    mismatched_cells = 0
    total = 0
    for _ in range(50):
        frame = random_frame(rng, speed=0.0)
        field = compute_dominance_grid(frame, FINE, mp0)
        players = sorted(frame.players, key=lambda p: p.player_id)
        pos = np.array([(p.pos.y, p.pos.x) for p in players])  # same [y,x] layout
        d2 = ((cells[np.newaxis, :, :] - pos[:, np.newaxis, :]) ** 2).sum(axis=2)
        oracle = np.argmin(d2, axis=0).reshape(FINE.ny, FINE.nx)
        mismatched_cells += int(np.sum(field.owner != oracle))
        total += oracle.size
    report(
        2,
        mismatched_cells == 0,
        f"nearest-neighbor oracle: {mismatched_cells}/{total} mismatched cells across 50 frames",
    )


def test_criterion_3_space_score_closed_form():
    target = 2677.5
    frame = make_frame([player("A1", ATTACKING, 0.0, 0.0)])
    errs = {}
    for cell, tol in ((0.5, 0.01), (0.25, 0.0025)):
        pitch = PitchSpec(grid_cell=cell)
        score = space_scores(
            compute_dominance_grid(frame, pitch, MP), frame, W
        ).score("A1")
        errs[cell] = abs(score - target) / target
    ok = errs[0.5] < 0.01 and errs[0.25] < 0.0025
    report(
        3,
        ok,
        f"single-player score vs 2677.5: rel err {errs[0.5]:.2e} at 0.5 m (<1%), "
        f"{errs[0.25]:.2e} at 0.25 m (<0.25%)",
    )


def test_criterion_4_kickoff_detection():
    hits = 0
    clipped = 0
    for i in range(200):
        kf = 14 + (i * 7) % 210  # spans heavily clipped through full windows
        cfg = SynthConfig(passes=1, kickoff_frames=kf)
        frames, events, gt = synthesize_match(cfg, seed=9000 + i)
        if gt["kickoff_impulse_frame"] - 4 < 50:
            clipped += 1
        detected = detect_kickoff_frame(frames, events[0].frame)
        hits += detected == gt["kickoff_impulse_frame"] - 4
    report(
        4,
        hits == 200,
        f"kickoff detection {hits}/200 traces exact ({clipped} window-clipped cases included)",
    )


def test_criterion_5_passline_interception():
    rng = np.random.default_rng(55)
    ts = np.linspace(0.0, 1.0, 10_000)
    worst = 0.0
    for _ in range(1000):
        dpos = Point2(rng.uniform(-52.5, 52.5), rng.uniform(-34, 34))
        dvel = Point2(rng.uniform(-6, 6), rng.uniform(-6, 6))
        a = Point2(rng.uniform(-52.5, 52.5), rng.uniform(-34, 34))
        b = Point2(rng.uniform(-52.5, 52.5), rng.uniform(-34, 34))
        analytic = passline_interception_time(dpos, dvel, a, b, MP)
        px = dpos.x + dvel.x * MP.reaction_time
        py = dpos.y + dvel.y * MP.reaction_time
        d = np.hypot(a.x + ts * (b.x - a.x) - px, a.y + ts * (b.y - a.y) - py)
        sampled = MP.reaction_time + float(d.min()) / MP.max_speed
        worst = max(worst, abs(analytic - sampled))
    report(5, worst < 1e-3, f"analytic vs 10k-point sampling, worst |dt| = {worst:.2e} s (< 1e-3)")


def test_criterion_6_gbdt_correctness(corpus_table):
    model = train_gbdt(corpus_table, CORPUS_HP)  # subsample = 1
    ll = model.training_logloss
    monotone_violations = sum(1 for a, b in zip(ll, ll[1:]) if b > a)

    margins = model.margin(corpus_table.raw)
    X = model.impute(corpus_table.raw)
    stacked = np.full(len(X), model.base_score)
    for tree in model.trees:
        stacked += tree.predict(X)
    additivity = float(np.max(np.abs(margins - stacked)))

    sub = corpus_table.subset(range(400))
    hp = GbdtHyperParams(n_trees=20, max_depth=3, learning_rate=0.2)
    base_paths = decision_paths(train_gbdt(sub, hp), sub.raw)
    path_failures = 0
    for k in range(20):
        r = np.random.default_rng(600 + k)
        a = r.uniform(0.2, 2.0, size=sub.raw.shape[1])
        b = r.uniform(0.0, 1.5, size=sub.raw.shape[1])
        X2 = a * sub.raw ** 3 + b * sub.raw
        t2 = type(sub)(
            event_ids=sub.event_ids, labels=sub.labels, columns=sub.columns,
            raw=X2,
        )
        m2 = train_gbdt(t2, hp)
        if not np.array_equal(decision_paths(m2, t2.raw), base_paths):
            path_failures += 1
    ok = monotone_violations == 0 and additivity < 1e-9 and path_failures == 0
    report(
        6,
        ok,
        f"logloss violations {monotone_violations}/≥{len(ll) - 1} rounds, margin additivity "
        f"{additivity:.1e} (< 1e-9), transform path failures {path_failures}/20",
    )


def test_criterion_7_synthetic_end_to_end(corpus, corpus_features, corpus_table, corpus_model):
    t0 = time.perf_counter()
    frames, events, _ = corpus

    best_hp, results = grid_search_cv(corpus_table, [CORPUS_HP], k=5, seed=17)
    cv_acc = results[0].mean_accuracy
    majority = float(max(np.mean(corpus_table.labels), 1 - np.mean(corpus_table.labels)))

    report7 = compare_ranking_variables(
        [(frames, events)], 3, [CORPUS_HP], 5, 17, CORPUS_PITCH, MP, W
    )

    summary = shap_summary(corpus_model, corpus_table)
    top = summary.top_feature()

    elapsed = time.perf_counter() - t0
    ok = (
        cv_acc >= majority + 0.05
        and report7.best_variable == "dist_ball"
        and top.startswith("dist_ball")
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        f"CV acc {cv_acc:.3f} vs majority {majority:.3f} (needs +5pts), ranking argmax "
        f"{report7.best_variable}, top SHAP feature {top}, {elapsed:.0f}s (< 120 s)",
    )


def test_criterion_8_shap_exactness(corpus_features, corpus_table, corpus_model):
    phi, base = shap_values(corpus_model, corpus_table.raw)
    margins = corpus_model.margin(corpus_table.raw)
    local = float(np.max(np.abs(base + phi.sum(axis=1) - margins)))

    # Brute-force equivalence needs <= 12 features: use the n=2 layout (10
    # columns) with a small ensemble.
    small_table = assemble_table(corpus_features[:600], 2, "dist_ball")
    small = train_gbdt(small_table, GbdtHyperParams(n_trees=5, max_depth=3,
                                                    learning_rate=0.3))
    X = small.impute(small_table.raw)
    worst = 0.0
    for i in range(100):
        bf = brute_force_shapley(small, X[i])
        ts = tree_shap(small, X[i])
        worst = max(worst, float(np.max(np.abs(bf - ts.values))))
    ok = local < 1e-6 and worst < 1e-9
    report(
        8,
        ok,
        f"local accuracy max {local:.1e} on {len(margins)} rows (< 1e-6), "
        f"brute-force diff max {worst:.1e} on 100 rows (< 1e-9)",
    )


def test_criterion_9_metrics_arithmetic():
    labels = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]  # TP=3 FP=1 FN=2 TN=4 at 0.5
    probs = [0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
    r = classification_metrics(labels, probs)
    exact = (
        r.accuracy == 0.7
        and r.per_class[1].precision == 0.75
        and r.per_class[1].recall == 0.6
        and abs(r.per_class[1].f1 - 2 / 3) < 5e-4
        and r.confusion == ((4, 1), (2, 3))
    )
    text = format_metrics_table({"n=3": r})
    lines = text.splitlines()
    layout = (
        lines[0].split()[:5] == ["model", "accuracy", "prec(+)", "rec(+)", "f1(+)"]
        and lines[1].startswith("n=3")
        and any("0.685" in l for l in lines)  # published n=1 reference row
        and any("0.752" in l for l in lines)  # published n=3 reference row
    )
    report(9, exact and layout, "fixture metrics exact, evaluation table layout matches")


def test_criterion_10_pipeline_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "pitch.grid_cell = 2.0\n"
        "synth.passes = 80\n"
        "synth.kickoff_frames = 60\n"
        "model.max_depth = 3\nmodel.learning_rate = 0.2\nmodel.n_trees = 30\n"
        "cv.k = 3\n",
        encoding="utf-8",
    )

    def chain(out: Path) -> dict[str, str]:
        m = out / "match"
        steps = [
            ["synth", "--config", str(cfg), "--seed", "7", "--out", str(m)],
            ["features", "--config", str(cfg), "--tracking", str(m / "tracking.jsonl"),
             "--events", str(m / "events.jsonl"), "--out", str(out / "feat")],
            ["train", "--config", str(cfg), "--features", str(out / "feat" / "features.csv"),
             "--out", str(out / "model")],
            ["eval", "--config", str(cfg), "--model", str(out / "model" / "model.json"),
             "--features", str(out / "feat" / "features.csv"), "--out", str(out / "eval")],
            ["explain", "--config", str(cfg), "--model", str(out / "model" / "model.json"),
             "--features", str(out / "feat" / "features.csv"), "--per-row",
             "--out", str(out / "explain")],
            ["render", "--config", str(cfg), "--tracking", str(m / "tracking.jsonl"),
             "--events", str(m / "events.jsonl"), "--frames", "111:141",
             "--out", str(out / "render")],
        ]
        for argv in steps:
            assert cli_dispatch(argv) == 0, argv
        digests = {}
        for p in sorted(out.rglob("*")):
            if p.is_file():
                digests[str(p.relative_to(out))] = hashlib.sha256(p.read_bytes()).hexdigest()
        return digests

    d1 = chain(tmp_path / "run1")
    d2 = chain(tmp_path / "run2")
    same_names = set(d1) == set(d2)
    differing = [k for k in d1 if same_names and d1[k] != d2[k]]
    has_svg = any(k.endswith(".svg") for k in d1)
    ok = same_names and not differing and has_svg
    report(
        10,
        ok,
        f"{len(d1)} artifacts byte-identical across reruns (SVG renders included)"
        if ok
        else f"differing artifacts: {differing[:5]}",
    )
