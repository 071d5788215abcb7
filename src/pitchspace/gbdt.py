"""Gradient-boosted regression trees with logistic loss, CV, and metrics.

Second-order boosting: per round, gradients g = p - y and hessians
h = p(1 - p) drive exact greedy splits with gain
0.5 * [GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)] - gamma and leaf
weights -lr * G/(H+lambda). Split enumeration is feature-order fixed and
row-order independent, so permuting training rows yields identical trees:
each tree puts its rows in a canonical order and every column in
(value, g, h) order once (presorted column blocks, Chen & Guestrin 2016,
§4.1). X is the same for every tree of a fit, so the fit sorts it once; a
tree re-sorts only groups of identical rows by g and runs of tied values by
(g, h). Stable partitions carry both orders to the children exactly as
sorting each node afresh would, so gradient sums reproduce bitwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dc_field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dominance import MotionParams
from .features import (
    RANKING_VARIABLES,
    PassSampleTable,
    Selection,
    assemble_table,
    extract_match_features,
    impute_non_finite,
)
from .match_io import SchemaError, located, write_json
from .pitch import PitchSpec, WeightParams

MODEL_FORMAT = "pitchspace-gbdt-1"

# Published full-season reference results (licensed corpus; desk-scale runs
# will not reproduce them). Shown in reports for side-by-side comparison.
REFERENCE_RANKING_ACCURACY = {
    "fast_space_vel": 0.512,
    "dist_ball": 0.559,
    "time_to_player": 0.538,
    "time_to_passline": 0.521,
}
REFERENCE_EVAL_ROWS = {
    "n=1": {"accuracy": 0.685, "precision": 0.54, "recall": 0.55, "f1": 0.54},
    "n=3": {"accuracy": 0.752, "precision": 0.58, "recall": 0.55, "f1": 0.56},
}


@dataclass(frozen=True)
class GbdtHyperParams:
    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_child_weight: float = 0.0  # minimum hessian sum per child
    l2_lambda: float = 1.0
    gamma: float = 0.0  # minimum split gain
    subsample: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {self.subsample}")
        if self.min_child_weight < 0 or self.l2_lambda < 0 or self.gamma < 0:
            raise ValueError("min_child_weight, l2_lambda, and gamma must be >= 0")


# The node table's fields and their fixed dtypes, in `model.json` key order.
_NODE_DTYPES = {
    "feature": np.int64,  # split column; < 0 marks a leaf
    "threshold": np.float64,
    "left": np.int64,
    "right": np.int64,
    "value": np.float64,
    "cover": np.int64,  # training rows routed through each node
}


@dataclass
class Tree:
    """One regression tree as parallel node arrays of the `_NODE_DTYPES`
    dtypes; any sequences given are converted."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    cover: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _NODE_DTYPES.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        feat, thr, left, right = self.feature, self.threshold, self.left, self.right
        idx = np.zeros(len(X), dtype=np.int64)
        rows = np.arange(len(X))
        while True:
            internal = feat[idx] >= 0
            if not internal.any():
                return idx
            j = np.where(internal, feat[idx], 0)
            go_left = X[rows, j] <= thr[idx]
            idx = np.where(internal, np.where(go_left, left[idx], right[idx]), idx)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.leaf_indices(X)]

    def expected_value(self) -> float:
        """Cover-weighted mean leaf value (the tree's training expectation)."""
        leaves = self.feature < 0
        return float(np.sum(self.value[leaves] * self.cover[leaves]) / self.cover[0])

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _NODE_DTYPES}

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        # Python's int() and float() per entry: they reject a null entry,
        # which a float64 conversion would turn into NaN.
        return cls(**{
            name: [(int if dtype is np.int64 else float)(v) for v in d[name]]
            for name, dtype in _NODE_DTYPES.items()
        })


@dataclass
class GbdtModel:
    """Boosted ensemble with a logistic link and its training context."""

    base_score: float  # log-odds
    trees: list[Tree]
    feature_names: list[str]
    medians: dict[str, float]
    hyperparams: GbdtHyperParams
    training_logloss: list[float] = dc_field(default_factory=list)

    def impute(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected rows of {len(self.feature_names)} columns, got shape {X.shape}"
            )
        return impute_non_finite(X, self.feature_names, self.medians)

    def margin(self, X: np.ndarray) -> np.ndarray:
        X = self.impute(X)
        out = np.full(len(X), self.base_score)
        for tree in self.trees:
            out += tree.predict(X)
        return out

    def predict_proba_batch(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.margin(X))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _logloss(y: np.ndarray, margins: np.ndarray) -> float:
    p = np.clip(_sigmoid(margins), 1e-15, 1 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def _runs(starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run number of every entry, and whether its run is longer than one,
    given the flags that mark where each run starts (`starts[0]` is True)."""
    sizes = np.diff(np.flatnonzero(np.append(starts, True)))
    return np.cumsum(starts), np.repeat(sizes > 1, sizes)


def _sort_runs(order: np.ndarray, tied: np.ndarray, run: np.ndarray, *keys: np.ndarray) -> None:
    """Stably re-sort, in place, the `tied` entries of `order` within their
    runs by the per-row `keys` (the last key is the primary one). `run` is
    nondecreasing along `order`, so every run keeps its own positions."""
    at = np.flatnonzero(tied)
    if at.size:
        sub = order[at]
        order[at] = sub[np.lexsort([key[sub] for key in keys] + [run[at]])]


class _Presorted:
    """The row orders of one training matrix that do not depend on g and h.

    `rows` is the lexicographic order of the rows of X, ties by row index, and
    `row_group` numbers its groups of identical rows. `cols` is every
    column's stable value order over `rows`, flattened from (F, n), and
    `col_run` numbers its runs of tied values. `row_dup` and `col_tied` flag
    the entries of groups and runs longer than one: only they are re-sorted
    per tree.
    """

    def __init__(self, X: np.ndarray) -> None:
        n, n_features = X.shape
        self.rows = np.lexsort(X.T[::-1])
        xs = X[self.rows]
        starts = np.ones(n, dtype=bool)
        starts[1:] = np.any(xs[1:] != xs[:-1], axis=1)
        self.row_group, self.row_dup = _runs(starts)
        pos = np.argsort(xs.T, axis=1, kind="stable")
        sv = np.take_along_axis(xs.T, pos, axis=1)
        starts = np.ones((n_features, n), dtype=bool)
        starts[:, 1:] = sv[:, 1:] != sv[:, :-1]
        self.cols = self.rows[pos].reshape(-1)
        self.col_run, self.col_tied = _runs(starts.reshape(-1))

    def tree_orders(
        self, rows: np.ndarray, g: np.ndarray, h: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The distinct `rows` in canonical order, by X lexicographically,
        then g, then row index: independent of input permutation, since
        value-identical rows are interchangeable, so gradient sums reproduce
        bitwise. Also the (F, len(rows)) matrix whose row j orders them by
        (X[:, j], g, h), ties in canonical order. For ascending `rows` both
        equal lexsorting them afresh; only identical rows and tied values are
        re-sorted."""
        keep = np.zeros(len(self.rows), dtype=bool)
        keep[rows] = True
        k = keep[self.rows]
        canon = self.rows[k]
        _sort_runs(canon, self.row_dup[k], self.row_group[k], g)
        # Tied values sit in canonical order already, except where identical
        # rows differ in g, which the (g, h) keys separate anyway.
        k = keep[self.cols]
        cols = self.cols[k]
        _sort_runs(cols, self.col_tied[k], self.col_run[k], h, g)
        return canon, cols.reshape(-1, len(canon))


def _build_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    hp: GbdtHyperParams,
    presorted: _Presorted,
    leaf_value: np.ndarray,
) -> Tree:
    """The tree fitted to g and h over `rows`; also writes each of those
    rows' leaf value into `leaf_value`, routed as Tree.predict routes it."""
    nodes: dict[str, list] = {name: [] for name in _NODE_DTYPES}  # in preorder
    lam = hp.l2_lambda
    n_features = X.shape[1]
    feature_ids = np.arange(n_features)[:, np.newaxis]
    goes_left = np.zeros(len(X), dtype=bool)  # row -> side of the current split

    def build(rows: np.ndarray, sorted_rows: np.ndarray | None, depth: int) -> int:
        """Append the node of `rows` and push its children onto `stack`.
        `rows` is in canonical order; row j of `sorted_rows` holds the same
        rows ordered by (X[:, j], g, h), ties in canonical order. It is None
        when the node is at max depth and cannot split."""
        node = len(nodes["cover"])
        new = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": 0.0,
               "cover": len(rows)}
        for name, v in new.items():
            nodes[name].append(v)
        G = float(np.cumsum(g[rows])[-1])
        H = float(np.cumsum(h[rows])[-1])

        best_feature = -1
        best_threshold = 0.0
        if depth < hp.max_depth and len(rows) >= 2:
            # One gain per (feature, cut between distinct sorted values).
            # Elementwise arithmetic and the sequential cumsum make every
            # gain bitwise equal to sorting each feature at this node.
            parent_score = G * G / (H + lam)
            sv = X[sorted_rows, feature_ids]
            GL = np.cumsum(g[sorted_rows], axis=1)[:, :-1]
            HL = np.cumsum(h[sorted_rows], axis=1)[:, :-1]
            GR, HR = G - GL, H - HL
            gains = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent_score) - hp.gamma
            ok = sv[:, :-1] < sv[:, 1:]
            ok &= (HL >= hp.min_child_weight) & (HR >= hp.min_child_weight)
            gains = np.where(ok, gains, -np.inf)
            k = np.argmax(gains, axis=1)  # first max -> earliest threshold on ties
            # A NaN maximum disqualifies its feature; the first feature with
            # the largest positive gain wins (fixed order, deterministic ties).
            top = gains[feature_ids[:, 0], k]
            top = np.where(np.isnan(top), -np.inf, top)
            j = int(np.argmax(top))
            if top[j] > 0.0:
                best_feature = j
                best_threshold = float((sv[j, k[j]] + sv[j, k[j] + 1]) / 2.0)

        if best_feature < 0:
            nodes["value"][node] = leaf_value[rows] = -hp.learning_rate * G / (H + lam)
            return node

        mask = X[rows, best_feature] <= best_threshold
        nodes["feature"][node] = best_feature
        nodes["threshold"][node] = best_threshold
        # Stable partitions keep both the canonical order and every per-feature
        # order of the children exactly as sorting their rows afresh would.
        left_sorted = right_sorted = None
        if depth + 1 < hp.max_depth:
            goes_left[rows] = mask
            side = goes_left[sorted_rows]
            n_left = int(np.count_nonzero(mask))
            left_sorted = sorted_rows[side].reshape(n_features, n_left)
            right_sorted = sorted_rows[~side].reshape(n_features, len(rows) - n_left)
        # the left child is popped first, so nodes are numbered in preorder
        stack.append((rows[~mask], right_sorted, depth + 1, ("right", node)))
        stack.append((rows[mask], left_sorted, depth + 1, ("left", node)))
        return node

    # An explicit stack of the nodes still to build, each with the (link,
    # parent) entry to point at it, so a deep tree cannot exhaust the
    # recursion limit. With l2_lambda = 0 a zero hessian sum divides by zero
    # in the gain matrix; NaN gains are disqualified above, and any node with
    # that sum raises ZeroDivisionError, which train_gbdt reports.
    stack: list[tuple[np.ndarray, np.ndarray | None, int, tuple[str, int] | None]] = [
        (*presorted.tree_orders(rows, g, h), 0, None)
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        while stack:
            *todo, parent = stack.pop()
            node = build(*todo)
            if parent is not None:
                link, at = parent
                nodes[link][at] = node
    return Tree(**nodes)


def train_gbdt(table: PassSampleTable, hp: GbdtHyperParams) -> GbdtModel:
    """Fit the boosted ensemble on a feature table.

    Imputation medians are computed from this table and stored on the model;
    per-round full-sample training logloss is recorded for the monotonicity
    check.
    """
    if len(table) < 2:
        raise ValueError("training requires at least 2 samples")
    y = table.labels.astype(np.float64)
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("training requires both classes present")
    medians = table.finite_medians()
    X = impute_non_finite(table.raw, table.columns, medians)
    presorted = _Presorted(X)

    p_bar = float(np.mean(y))
    base = math.log(p_bar / (1.0 - p_bar))
    margins = np.full(len(y), base)
    rng = np.random.default_rng(hp.seed)

    trees: list[Tree] = []
    logloss: list[float] = []
    n = len(y)
    step = np.empty(n)
    for _ in range(hp.n_trees):
        p = _sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        if hp.subsample < 1.0:
            m = max(1, int(round(hp.subsample * n)))
            rows = np.sort(rng.choice(n, size=m, replace=False))
        else:
            rows = np.arange(n)
        try:
            tree = _build_tree(X, g, h, rows, hp, presorted, step)
        except ZeroDivisionError:
            raise ValueError(
                f"l2_lambda={hp.l2_lambda}: a tree node has hessian sum 0 (the model "
                "predicts all its rows with certainty); use l2_lambda > 0"
            ) from None
        trees.append(tree)
        if len(rows) < n:  # the builder routed only the sampled rows
            rest = np.ones(n, dtype=bool)
            rest[rows] = False
            step[rest] = tree.predict(X[rest])
        margins += step
        logloss.append(_logloss(y, margins))

    return GbdtModel(
        base_score=base,
        trees=trees,
        feature_names=list(table.columns),
        medians=medians,
        hyperparams=hp,
        training_logloss=logloss,
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass
class MetricsReport:
    """Confusion-matrix metrics at a fixed threshold, per class and macro."""

    accuracy: float
    per_class: dict[int, ClassMetrics]
    macro: ClassMetrics
    confusion: tuple[tuple[int, int], tuple[int, int]]  # [[tn, fp], [fn, tp]]
    threshold: float
    n_samples: int


def classification_metrics(
    labels: Sequence[int], probabilities: Sequence[float], threshold: float = 0.5
) -> MetricsReport:
    y = np.asarray(labels, dtype=np.int64)
    p = np.asarray(probabilities, dtype=np.float64)
    if y.size == 0:
        raise ValueError("empty input")
    if y.shape != p.shape:
        raise ValueError(f"length mismatch: {y.shape} labels vs {p.shape} probabilities")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary")
    pred = (p >= threshold).astype(np.int64)
    tp = int(np.sum((pred == 1) & (y == 1)))
    fp = int(np.sum((pred == 1) & (y == 0)))
    fn = int(np.sum((pred == 0) & (y == 1)))
    tn = int(np.sum((pred == 0) & (y == 0)))

    def prf(tp_: int, fp_: int, fn_: int) -> ClassMetrics:
        precision = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
        recall = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return ClassMetrics(precision, recall, f1)

    pos = prf(tp, fp, fn)
    neg = prf(tn, fn, fp)  # negative class: predicted-negative correctness
    macro = ClassMetrics(
        (pos.precision + neg.precision) / 2,
        (pos.recall + neg.recall) / 2,
        (pos.f1 + neg.f1) / 2,
    )
    return MetricsReport(
        accuracy=(tp + tn) / y.size,
        per_class={1: pos, 0: neg},
        macro=macro,
        confusion=((tn, fp), (fn, tp)),
        threshold=threshold,
        n_samples=int(y.size),
    )


def format_metrics_table(reports: dict[str, MetricsReport]) -> str:
    """Fixed-layout evaluation table with the published full-season rows appended."""
    lines = [
        f"{'model':<12}{'accuracy':>10}{'prec(+)':>9}{'rec(+)':>9}{'f1(+)':>9}"
        f"{'prec(-)':>9}{'rec(-)':>9}{'f1(-)':>9}{'prec(M)':>9}{'rec(M)':>9}{'f1(M)':>9}"
    ]
    for name, r in reports.items():
        pos, neg, mac = r.per_class[1], r.per_class[0], r.macro
        lines.append(
            f"{name:<12}{r.accuracy:>10.3f}{pos.precision:>9.3f}{pos.recall:>9.3f}{pos.f1:>9.3f}"
            f"{neg.precision:>9.3f}{neg.recall:>9.3f}{neg.f1:>9.3f}"
            f"{mac.precision:>9.3f}{mac.recall:>9.3f}{mac.f1:>9.3f}"
        )
    lines.append("reference (full-season corpus, not reproducible at desk scale):")
    for name, ref in REFERENCE_EVAL_ROWS.items():
        lines.append(
            f"  {name:<10}{ref['accuracy']:>10.3f}{ref['precision']:>9.2f}"
            f"{ref['recall']:>9.2f}{ref['f1']:>9.2f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Cross-validation and grid search
# ---------------------------------------------------------------------------


def stratified_kfold(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified folds; class ratios match within one sample."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    # each class fills the folds from fold 0, so only the largest reaches them all
    if counts.max(initial=0) < k:
        raise ValueError(
            f"the largest class has {counts.max(initial=0)} sample(s); "
            f"stratified {k}-fold needs {k}"
        )
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in classes:
        idx = np.nonzero(labels == cls)[0]
        if idx.size < 2:
            raise ValueError(
                f"class {cls} has {idx.size} sample(s); stratified {k}-fold impossible"
            )
        idx = idx.copy()
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[pos % k].append(int(i))
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


@dataclass
class CvResult:
    hyperparams: GbdtHyperParams
    fold_accuracies: list[float]
    mean_accuracy: float


def grid_search_cv(
    table: PassSampleTable,
    grid: list[GbdtHyperParams],
    k: int = 5,
    seed: int = 0,
) -> tuple[GbdtHyperParams, list[CvResult]]:
    """Mean validation accuracy per config over stratified k-fold CV.

    Imputation medians are recomputed inside each training fold (train_gbdt
    does it from the fold table), so validation rows never leak into them.
    Configs that differ only in `n_trees` share one fit per fold with the
    largest `n_trees`: rounds are deterministic, so a smaller model is exactly
    a prefix of it, and its validation margin is read off the running sum.
    Best config is the accuracy argmax; ties keep the earlier grid position.
    """
    if not grid:
        raise ValueError("grid must be non-empty")
    folds = stratified_kfold(table.labels, k, seed)
    groups: dict[GbdtHyperParams, list[int]] = {}
    for i, hp in enumerate(grid):
        groups.setdefault(replace(hp, n_trees=1), []).append(i)
    accs: list[list[float]] = [[] for _ in grid]
    for key, members in groups.items():
        sizes = {grid[i].n_trees for i in members}
        hp = replace(key, n_trees=max(sizes))
        for f in range(k):
            train_idx = np.concatenate([folds[j] for j in range(k) if j != f])
            model = train_gbdt(table.subset(train_idx), hp)
            val = table.subset(folds[f])
            X = model.impute(val.raw)
            margin = np.full(len(X), model.base_score)  # summed as in GbdtModel.margin
            acc_at: dict[int, float] = {}
            for n_trees, tree in enumerate(model.trees, start=1):
                margin += tree.predict(X)
                if n_trees in sizes:
                    pred = (_sigmoid(margin) >= 0.5).astype(np.int64)
                    acc_at[n_trees] = float(np.mean(pred == val.labels))
            for i in members:
                accs[i].append(acc_at[grid[i].n_trees])
    results = [CvResult(hp, a, float(np.mean(a))) for hp, a in zip(grid, accs)]
    best = max(range(len(results)), key=lambda i: (results[i].mean_accuracy, -i))
    return results[best].hyperparams, results


@dataclass
class RankingRow:
    variable: str
    mean_accuracy: float
    reference_accuracy: float


@dataclass
class RankingReport:
    rows: list[RankingRow]
    best_variable: str


def compare_ranking_variables(
    matches: Iterable[tuple[list, list]],
    n: int,
    grid: list[GbdtHyperParams],
    k: int,
    seed: int,
    pitch: PitchSpec,
    mp: MotionParams,
    w: WeightParams,
) -> RankingReport:
    """CV accuracy per candidate ranking variable, with the argmax marked."""
    # one extraction serves all four tables: only the top-n selection differs
    event_features = extract_match_features(
        matches, pitch, mp, w, Selection(n, RANKING_VARIABLES)
    )
    rows: list[RankingRow] = []
    for var in RANKING_VARIABLES:
        table = assemble_table(event_features, n, var)
        _, results = grid_search_cv(table, grid, k, seed)
        best = max(r.mean_accuracy for r in results)
        rows.append(RankingRow(var, best, REFERENCE_RANKING_ACCURACY[var]))
    best_variable = max(rows, key=lambda r: (r.mean_accuracy, -rows.index(r))).variable
    return RankingReport(rows=rows, best_variable=best_variable)


def format_ranking_table(report: RankingReport) -> str:
    lines = [f"{'ranking variable':<18}{'cv accuracy':>12}{'reference':>11}  "]
    for row in report.rows:
        mark = " <- selected" if row.variable == report.best_variable else ""
        lines.append(
            f"{row.variable:<18}{row.mean_accuracy:>12.3f}{row.reference_accuracy:>11.3f}{mark}"
        )
    lines.append("reference column: full-season corpus results, desk-scale data will differ")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_model(model: GbdtModel, path: str | Path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "columns": model.feature_names,
        "base_score": model.base_score,
        "hyperparams": asdict(model.hyperparams),
        "medians": model.medians,
        "training_logloss": model.training_logloss,
        "trees": [t.to_dict() for t in model.trees],
    }
    write_json(path, doc, indent=1)


def _check_tree(tree: Tree, n_columns: int, t: int) -> None:
    """Reject node tables that traversal could not finish or whose margins
    would not be finite: every internal node's children must come after it,
    so every path ends at a leaf; thresholds and values must be finite; every
    cover must be at least 1 (a trained node holds a row, and attribution
    divides by covers); and an internal node's cover must be the sum of its
    children's covers."""
    n = len(tree.feature)
    if n == 0 or any(len(getattr(tree, name)) != n for name in _NODE_DTYPES):
        raise SchemaError(f"tree {t}: node arrays must be non-empty and of equal length")
    for node, feat in enumerate(tree.feature):
        where = f"tree {t} node {node}"
        for name, v in (("threshold", tree.threshold[node]), ("value", tree.value[node])):
            if not math.isfinite(v):
                raise SchemaError(f"{where}: {name} {v} is not finite")
        if tree.cover[node] < 1:
            raise SchemaError(f"{where}: cover {tree.cover[node]} is below 1")
        if feat < 0:
            continue
        if feat >= n_columns:
            raise SchemaError(f"{where}: feature index {feat} >= {n_columns} columns")
        for child in (tree.left[node], tree.right[node]):
            if not node < child < n:
                raise SchemaError(f"{where}: child index {child} not in ({node}, {n})")
    cover = tree.cover.tolist()  # Python ints, so that the sums cannot wrap
    for node, feat in enumerate(tree.feature):  # children are known to be in range now
        left, right = tree.left[node], tree.right[node]
        if feat >= 0 and cover[node] != cover[left] + cover[right]:
            raise SchemaError(
                f"tree {t} node {node}: cover {cover[node]} is not the sum of its"
                f" children's covers {cover[left]} + {cover[right]}"
            )


def load_model(path: str | Path) -> GbdtModel:
    with located(path):
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # a JSON syntax error, or an integer over the digit limit
                raise SchemaError(f"malformed model (not JSON: {exc})") from exc
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise SchemaError(f"not a {MODEL_FORMAT} file")
        try:
            model = GbdtModel(
                base_score=float(doc["base_score"]),
                trees=[Tree.from_dict(t) for t in doc["trees"]],
                feature_names=[str(c) for c in doc["columns"]],
                medians={str(k): float(v) for k, v in doc["medians"].items()},
                hyperparams=GbdtHyperParams(**doc["hyperparams"]),
                training_logloss=[float(v) for v in doc["training_logloss"]],
            )
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"malformed model ({type(exc).__name__}: {exc})") from exc
        if not math.isfinite(model.base_score):
            raise SchemaError(f"base_score {model.base_score} is not finite")
        for j, col in enumerate(model.feature_names):
            if col in model.feature_names[:j]:  # medians are keyed by name
                raise SchemaError(f"malformed model (column {col!r} repeated)")
            if not math.isfinite(model.medians.get(col, math.nan)):
                raise SchemaError(f"median of column {col!r} is missing or not finite")
        # Margins and attributions add leaf values over the trees, and a tree's
        # expectation weighs them by cover; each such sum is at most `bound`.
        bound = abs(model.base_score)
        for t, tree in enumerate(model.trees):
            _check_tree(tree, len(model.feature_names), t)
            leaves = tree.feature < 0
            bound += float(np.max(np.abs(tree.value[leaves]))) * sum(tree.cover[leaves].tolist())
            if not math.isfinite(bound):
                raise SchemaError(
                    f"tree {t}: leaf values too large; margins or attributions would overflow"
                )
    return model
