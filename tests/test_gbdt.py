import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pitchspace import gbdt
from pitchspace.config import RunConfig
from pitchspace.features import PassSampleTable
from pitchspace.gbdt import (
    GbdtHyperParams,
    GbdtModel,
    Tree,
    classification_metrics,
    compare_ranking_variables,
    format_metrics_table,
    format_ranking_table,
    grid_search_cv,
    load_model,
    predict_proba,
    save_model,
    stratified_kfold,
    train_gbdt,
)
from pitchspace.dominance import MotionParams
from pitchspace.match_io import SchemaError
from pitchspace.pitch import PitchSpec, WeightParams
from pitchspace.synth import SynthConfig, synthesize_match


def make_table(X, y, cols=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    cols = cols or [f"f{j}" for j in range(X.shape[1])]
    return PassSampleTable(
        event_ids=[f"E{i}" for i in range(len(y))],
        labels=y,
        columns=cols,
        raw=X,
    )


def random_table(rng, n=400, d=6):
    X = rng.normal(0.0, 1.0, (n, d))
    logit = 1.5 * X[:, 0] - 2.0 * X[:, d // 2] + 0.5 * X[:, d - 1]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    return make_table(X, y)


def decision_paths(model, X):
    """Leaf index per (row, tree); the monotone-transform invariant object."""
    X = model.impute(X)
    return np.column_stack([t.leaf_indices(X) for t in model.trees])


def canonical_order(rows, X, g):
    """Rows sorted by X lexicographically, then g, ties in input order."""
    keys = [g[rows]] + [X[rows, j] for j in range(X.shape[1] - 1, -1, -1)]
    return rows[np.lexsort(keys)]


def lexsorted_columns(rows, X, g, h):
    """Row j orders the canonical `rows` by (X[:, j], g, h), ties in canonical order."""
    shape = (X.shape[1], len(rows))
    keys = (np.broadcast_to(h[rows], shape), np.broadcast_to(g[rows], shape), X[rows].T)
    return rows[np.lexsort(keys, axis=-1)]


def build_tree_per_node_sort(X, g, h, rows, hp, presorted=None):
    """Reference exact-greedy builder: canonicalizes the rows and lexsorts every
    column afresh at each node, then loops over the features. The presorted
    `gbdt._build_tree` must give the same trees bit for bit. `presorted` is
    accepted for its signature and ignored."""
    tree = SimpleNamespace(feature=[], threshold=[], left=[], right=[], value=[], cover=[])
    lam = hp.l2_lambda

    def new_node():
        for arr, v in ((tree.feature, -1), (tree.threshold, 0.0), (tree.left, -1),
                       (tree.right, -1), (tree.value, 0.0), (tree.cover, 0)):
            arr.append(v)
        return len(tree.feature) - 1

    def build(rows, depth):
        rows = canonical_order(rows, X, g)
        node = new_node()
        tree.cover[node] = len(rows)
        g_node = g[rows]
        h_node = h[rows]
        G = float(np.cumsum(g_node)[-1])
        H = float(np.cumsum(h_node)[-1])
        best_gain = 0.0
        best_feature = -1
        best_threshold = 0.0
        if depth < hp.max_depth and len(rows) >= 2:
            parent_score = G * G / (H + lam)
            for j in range(X.shape[1]):
                vals = X[rows, j]
                order = np.lexsort((h_node, g_node, vals))
                sv = vals[order]
                cg = np.cumsum(g_node[order])
                ch = np.cumsum(h_node[order])
                cuts = np.nonzero(sv[:-1] < sv[1:])[0]
                if cuts.size == 0:
                    continue
                GL, HL = cg[cuts], ch[cuts]
                GR, HR = G - GL, H - HL
                gains = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent_score) - hp.gamma
                ok = (HL >= hp.min_child_weight) & (HR >= hp.min_child_weight)
                if not ok.any():
                    continue
                gains = np.where(ok, gains, -np.inf)
                k = int(np.argmax(gains))
                if gains[k] > best_gain:
                    best_gain = float(gains[k])
                    best_feature = j
                    best_threshold = float((sv[cuts[k]] + sv[cuts[k] + 1]) / 2.0)
        if best_feature < 0:
            tree.value[node] = -hp.learning_rate * G / (H + lam)
            return node
        mask = X[rows, best_feature] <= best_threshold
        tree.feature[node] = best_feature
        tree.threshold[node] = best_threshold
        tree.left[node] = build(rows[mask], depth + 1)
        tree.right[node] = build(rows[~mask], depth + 1)
        return node

    build(rows, 0)
    return Tree(**vars(tree))


def oracle_table(rng, n=240, d=5, levels=0, duplicates=False, constant=False, missing=0.0):
    """Random table; `levels` > 0 snaps values to that many per column (ties),
    `duplicates` repeats whole rows with their labels, `constant` fixes a column,
    `missing` is the share of column 0 made non-finite (imputed to its median)."""
    X = rng.normal(0.0, 1.0, (n, d))
    if levels:
        X = np.floor((X + 2.0) * levels / 4.0)
    if duplicates:
        X[n // 2 :] = X[: n - n // 2]
    if constant:
        X[:, 1] = 7.0
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X[:, 0] + X[:, 2]))).astype(np.int64)
    if duplicates:
        y[n // 2 :] = y[: n - n // 2]
    if missing:
        gone = np.flatnonzero(rng.random(n) < missing)
        X[gone, 0] = np.where(gone % 2 == 0, np.inf, np.nan)
    return make_table(X, y)


class TestHyperParams:
    def test_learning_rate_zero_rejected(self):
        with pytest.raises(ValueError):
            GbdtHyperParams(learning_rate=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_trees": 0}, {"max_depth": 0}, {"subsample": 0.0}, {"subsample": 1.5},
         {"l2_lambda": -1.0}],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(ValueError):
            GbdtHyperParams(**kwargs)

    def test_default_grid_is_documented_cross_product(self):
        grid = RunConfig().grid
        assert len(grid) == 12
        assert {g.max_depth for g in grid} == {3, 5}
        assert {g.learning_rate for g in grid} == {0.1, 0.3}
        assert {g.n_trees for g in grid} == {50, 100, 200}
        assert all(g.subsample == 1.0 and g.gamma == 0.0 and g.l2_lambda == 1.0 for g in grid)


class TestTraining:
    def test_linearly_separable_reaches_full_accuracy(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 1.0], [11.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        model = train_gbdt(make_table(X, y), GbdtHyperParams(n_trees=10, max_depth=2,
                                                             learning_rate=0.5))
        preds = model.predict_proba_batch(X) >= 0.5
        assert np.array_equal(preds.astype(int), y)

    def test_single_class_rejected(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            train_gbdt(make_table(X, np.array([1, 1])), GbdtHyperParams())

    def test_logloss_nonincreasing(self, rng):
        model = train_gbdt(random_table(rng), GbdtHyperParams(n_trees=60, max_depth=3,
                                                              learning_rate=0.3))
        ll = model.training_logloss
        assert all(b <= a + 1e-12 for a, b in zip(ll, ll[1:]))

    def test_row_permutation_yields_identical_trees(self, rng):
        table = random_table(rng)
        hp = GbdtHyperParams(n_trees=25, max_depth=4, learning_rate=0.2)
        m1 = train_gbdt(table, hp)
        perm = rng.permutation(len(table))
        m2 = train_gbdt(table.subset(perm), hp)
        assert m1.base_score == m2.base_score
        for t1, t2 in zip(m1.trees, m2.trees):
            assert t1.to_dict() == t2.to_dict()

    @pytest.mark.parametrize(
        "table_kw, hp_kw",
        [
            pytest.param({}, {}, id="plain"),
            pytest.param({"levels": 3}, {}, id="many_ties"),
            pytest.param({"levels": 4, "duplicates": True}, {}, id="duplicated_rows"),
            pytest.param({"constant": True}, {}, id="constant_column"),
            pytest.param({"levels": 5}, {"subsample": 0.7, "seed": 3}, id="subsample"),
            pytest.param({"levels": 6}, {"min_child_weight": 4.0}, id="min_child_weight"),
            pytest.param({}, {"gamma": 0.4}, id="gamma"),
            pytest.param({"levels": 3}, {"max_depth": 1}, id="stumps"),
            pytest.param({"missing": 0.3}, {}, id="imputed_median_runs"),
            pytest.param(
                {"levels": 4, "duplicates": True}, {"subsample": 0.7, "seed": 3},
                id="duplicated_rows_subsample",
            ),
            pytest.param({"levels": 8}, {"max_depth": 5}, id="depth5"),
        ],
    )
    def test_presorted_builder_matches_per_node_sort(self, monkeypatch, table_kw, hp_kw):
        table = oracle_table(np.random.default_rng(8), **table_kw)
        hp = GbdtHyperParams(**{"n_trees": 8, "max_depth": 4, "learning_rate": 0.3, **hp_kw})
        fast = train_gbdt(table, hp)
        monkeypatch.setattr(gbdt, "_build_tree", build_tree_per_node_sort)
        reference = train_gbdt(table, hp)
        assert any(len(t.feature) > 1 for t in reference.trees)
        assert [t.to_dict() for t in fast.trees] == [t.to_dict() for t in reference.trees]

    @pytest.mark.parametrize(
        "table_kw",
        [
            pytest.param({}, id="plain"),
            pytest.param({"levels": 3, "duplicates": True}, id="duplicated_rows"),
            pytest.param({"missing": 0.3}, id="imputed_median_runs"),
        ],
    )
    @pytest.mark.parametrize("subsample", [False, True], ids=["full", "subsample"])
    def test_fit_orders_equal_canonical_order_and_lexsort(self, table_kw, subsample):
        # Rounded g and h tie often, within runs of tied values and within
        # groups of identical rows, so every tie rule of the fresh sort counts.
        rng = np.random.default_rng(11)
        X = oracle_table(rng, **table_kw).imputed()
        g = np.round(rng.normal(0.0, 0.5, len(X)), 1)
        h = np.round(rng.uniform(0.0, 0.25, len(X)), 2)
        rows = np.arange(len(X))
        if subsample:
            rows = np.sort(rng.choice(len(X), size=170, replace=False))
        canon, cols = gbdt._Presorted(X).tree_orders(rows, g, h)
        expected = canonical_order(rows, X, g)
        assert np.array_equal(canon, expected)
        assert np.array_equal(cols, lexsorted_columns(expected, X, g, h))

    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_presorted_builder_matches_on_permuted_rows_and_degenerate_gains(self, depth):
        # Unsorted, partial rows. Rows whose p equals their label have
        # g = h = 0; with no L2 term a cut that isolates only such rows has a
        # 0/0 = NaN gain, which must disqualify its feature as in the reference.
        rng = np.random.default_rng(depth)
        table = oracle_table(rng, levels=4, duplicates=True)
        X = table.raw
        p = rng.choice([0.25, 0.5, 0.8], size=len(X))
        settled = rng.random(len(X)) < 0.3
        p[settled] = table.labels[settled]
        g = p - table.labels
        h = p * (1.0 - p)
        rows = rng.permutation(len(X))[:-9]

        def outcome(builder, hp):
            try:
                with np.errstate(divide="ignore", invalid="ignore"):
                    return builder(X, g, h, rows, hp, gbdt._Presorted(X)).to_dict()
            except ZeroDivisionError:  # a node whose hessian sum is 0 with no L2 term
                return "ZeroDivisionError"

        for lam in (1.0, 0.0):
            hp = GbdtHyperParams(max_depth=depth, l2_lambda=lam)
            reference = outcome(build_tree_per_node_sort, hp)
            assert lam == 0.0 or len(reference["feature"]) > 1
            assert outcome(gbdt._build_tree, hp) == reference

    def test_subsample_deterministic_under_seed(self, rng):
        table = random_table(rng)
        hp = GbdtHyperParams(n_trees=15, max_depth=3, subsample=0.7, seed=5)
        m1, m2 = train_gbdt(table, hp), train_gbdt(table, hp)
        for t1, t2 in zip(m1.trees, m2.trees):
            assert t1.to_dict() == t2.to_dict()

    def test_min_child_weight_blocks_small_leaves(self, rng):
        table = random_table(rng, n=100)
        blocked = train_gbdt(table, GbdtHyperParams(n_trees=3, max_depth=6,
                                                    min_child_weight=1e9))
        assert all(len(t.feature) == 1 for t in blocked.trees)  # all stumps pruned to leaves

    def test_gamma_prunes_weak_splits(self, rng):
        table = random_table(rng, n=200)
        free = train_gbdt(table, GbdtHyperParams(n_trees=5, max_depth=4))
        taxed = train_gbdt(table, GbdtHyperParams(n_trees=5, max_depth=4, gamma=1e6))
        assert sum(len(t.feature) for t in taxed.trees) < sum(len(t.feature) for t in free.trees)


class TestPrediction:
    def test_empty_ensemble_is_base_score(self, rng):
        # A huge gamma prunes every split; margins collapse to the prior.
        table = random_table(rng, n=50)
        model = train_gbdt(table, GbdtHyperParams(n_trees=3, gamma=1e9))
        p_bar = table.labels.mean()
        assert predict_proba(model, np.zeros(6)) == pytest.approx(p_bar, abs=1e-9)

    def test_monotone_single_feature_tree(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = train_gbdt(make_table(X, y), GbdtHyperParams(n_trees=5, max_depth=1,
                                                             learning_rate=0.5))
        p_low = predict_proba(model, np.array([0.5]))
        p_high = predict_proba(model, np.array([2.5]))
        assert p_high > p_low

    def test_margin_additivity_path_trace(self, rng):
        table = random_table(rng)
        model = train_gbdt(table, GbdtHyperParams(n_trees=20, max_depth=3))
        X = table.imputed(model.medians)
        margins = model.margin(table.raw)
        for i in range(0, len(X), 37):
            total = model.base_score
            for tree in model.trees:
                node = 0
                while tree.feature[node] >= 0:
                    j = tree.feature[node]
                    node = tree.left[node] if X[i, j] <= tree.threshold[node] else tree.right[node]
                total += tree.value[node]
            assert abs(total - margins[i]) < 1e-9

    def test_probabilities_strictly_inside_unit_interval(self, rng):
        table = random_table(rng)
        model = train_gbdt(table, GbdtHyperParams(n_trees=50, max_depth=4, learning_rate=0.3))
        p = model.predict_proba_batch(table.raw)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_dict_row_and_column_mismatch(self, rng):
        table = random_table(rng, n=50)
        model = train_gbdt(table, GbdtHyperParams(n_trees=3))
        row = {c: 0.0 for c in model.feature_names}
        assert 0.0 < predict_proba(model, row) < 1.0
        with pytest.raises(ValueError):
            predict_proba(model, np.zeros(3))
        with pytest.raises(ValueError):
            predict_proba(model, {c: 0.0 for c in model.feature_names[:-1]})

    def test_non_finite_inputs_resolved_by_medians(self, rng):
        table = random_table(rng, n=80)
        model = train_gbdt(table, GbdtHyperParams(n_trees=5))
        row = np.zeros(6)
        row[2] = math.inf
        imputed_row = row.copy()
        imputed_row[2] = model.medians[model.feature_names[2]]
        assert predict_proba(model, row) == predict_proba(model, imputed_row)

    def test_monotone_transform_preserves_decision_paths(self, rng):
        table = random_table(rng, n=250)
        hp = GbdtHyperParams(n_trees=15, max_depth=3)
        base_model = train_gbdt(table, hp)
        base_paths = decision_paths(base_model, table.raw)
        for k in range(20):
            r = np.random.default_rng(k)
            a = r.uniform(0.2, 2.0, size=6)
            b = r.uniform(0.0, 1.5, size=6)
            X2 = a * table.raw ** 3 + b * table.raw  # strictly increasing per column
            t2 = make_table(X2, table.labels)
            m2 = train_gbdt(t2, hp)
            assert np.array_equal(decision_paths(m2, X2), base_paths)


class TestMetrics:
    def test_hand_arithmetic_fixture(self):
        # TP=3, FP=1, FN=2, TN=4
        labels = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
        probs = [0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
        r = classification_metrics(labels, probs)
        assert r.accuracy == pytest.approx(0.7)
        assert r.per_class[1].precision == pytest.approx(0.75)
        assert r.per_class[1].recall == pytest.approx(0.6)
        assert r.per_class[1].f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
        assert r.confusion == ((4, 1), (2, 3))
        assert sum(sum(row) for row in r.confusion) == r.n_samples

    def test_perfect_predictions(self):
        labels = [0, 1, 1, 0]
        probs = [0.1, 0.9, 0.8, 0.2]
        r = classification_metrics(labels, probs)
        assert r.accuracy == 1.0
        assert r.macro.f1 == 1.0
        assert r.per_class[0].precision == 1.0

    def test_empty_input_errors(self):
        with pytest.raises(ValueError):
            classification_metrics([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classification_metrics([1, 0], [0.5])

    def test_table_format_snapshot(self):
        labels = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
        probs = [0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
        r = classification_metrics(labels, probs)
        text = format_metrics_table({"n=3": r})
        lines = text.splitlines()
        assert lines[0].split() == [
            "model", "accuracy", "prec(+)", "rec(+)", "f1(+)",
            "prec(-)", "rec(-)", "f1(-)", "prec(M)", "rec(M)", "f1(M)",
        ]
        assert lines[1].startswith("n=3")
        assert "0.700" in lines[1]
        # Reference rows carry the published full-season values.
        assert any("0.685" in l for l in lines)
        assert any("0.752" in l for l in lines)


class TestCrossValidation:
    def test_stratified_folds_preserve_ratio(self, rng):
        labels = np.array([1] * 70 + [0] * 30)
        folds = stratified_kfold(labels, 5, seed=3)
        assert sorted(np.concatenate(folds).tolist()) == list(range(100))
        for f in folds:
            assert np.sum(labels[f] == 1) == 14
            assert np.sum(labels[f] == 0) == 6

    def test_ratio_within_one_sample_when_uneven(self, rng):
        labels = np.array([1] * 73 + [0] * 29)
        folds = stratified_kfold(labels, 5, seed=3)
        pos = [int(np.sum(labels[f] == 1)) for f in folds]
        neg = [int(np.sum(labels[f] == 0)) for f in folds]
        assert max(pos) - min(pos) <= 1
        assert max(neg) - min(neg) <= 1

    def test_rare_class_errors(self):
        labels = np.array([1] * 99 + [0])
        with pytest.raises(ValueError):
            stratified_kfold(labels, 5, seed=0)

    def test_same_seed_identical_folds(self, rng):
        labels = (rng.random(60) < 0.6).astype(np.int64)
        f1 = stratified_kfold(labels, 4, seed=9)
        f2 = stratified_kfold(labels, 4, seed=9)
        assert all(np.array_equal(a, b) for a, b in zip(f1, f2))

    def test_singleton_grid_returned(self, rng):
        table = random_table(rng, n=120)
        hp = GbdtHyperParams(n_trees=10, max_depth=2)
        best, results = grid_search_cv(table, [hp], k=3, seed=1)
        assert best == hp and len(results) == 1

    def test_duplicate_configs_keep_earlier(self, rng):
        table = random_table(rng, n=120)
        hp = GbdtHyperParams(n_trees=10, max_depth=2)
        best, results = grid_search_cv(table, [hp, hp], k=3, seed=1)
        assert results[0].mean_accuracy == results[1].mean_accuracy
        assert best is results[0].hyperparams or best == results[0].hyperparams

    def test_same_seed_identical_metrics(self, rng):
        table = random_table(rng, n=150)
        grid = [GbdtHyperParams(n_trees=10, max_depth=2),
                GbdtHyperParams(n_trees=20, max_depth=3)]
        _, r1 = grid_search_cv(table, grid, k=3, seed=4)
        _, r2 = grid_search_cv(table, grid, k=3, seed=4)
        assert [r.fold_accuracies for r in r1] == [r.fold_accuracies for r in r2]

    def test_nested_grid_matches_direct_fits(self, rng, monkeypatch):
        # Configs that differ only in n_trees share one fit per fold; each must
        # still score exactly like its own fit, in grid order.
        table = random_table(rng, n=150)
        grid = [
            GbdtHyperParams(n_trees=n, max_depth=d, learning_rate=0.3, subsample=s, seed=2)
            for d, s in ((2, 1.0), (3, 0.8))
            for n in (12, 3, 6)
        ]
        grid.append(grid[1])
        fitted = []

        def counting_train(table, hp, medians=None):
            fitted.append(hp.n_trees)
            return train_gbdt(table, hp, medians)

        monkeypatch.setattr(gbdt, "train_gbdt", counting_train)
        best, results = grid_search_cv(table, grid, k=3, seed=4)
        monkeypatch.undo()
        assert fitted == [12] * 6  # two groups x three folds, largest n_trees only
        folds = stratified_kfold(table.labels, 3, 4)
        for hp, result in zip(grid, results):
            assert result.hyperparams is hp
            accs = []
            for f in range(3):
                train_idx = np.concatenate([folds[j] for j in range(3) if j != f])
                model = train_gbdt(table.subset(train_idx), hp)
                val = table.subset(folds[f])
                probs = model.predict_proba_batch(val.raw)
                accs.append(float(np.mean((probs >= 0.5).astype(np.int64) == val.labels)))
            assert result.fold_accuracies == accs
        top = max(r.mean_accuracy for r in results)
        assert best is next(r.hyperparams for r in results if r.mean_accuracy == top)

    def test_empty_grid_errors(self, rng):
        with pytest.raises(ValueError):
            grid_search_cv(random_table(rng, n=60), [], k=3, seed=0)


class TestSerialization:
    def test_round_trip_exact(self, rng, tmp_path):
        table = random_table(rng)
        model = train_gbdt(table, GbdtHyperParams(n_trees=12, max_depth=3))
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert back.base_score == model.base_score
        assert back.medians == model.medians
        assert back.hyperparams == model.hyperparams
        assert np.array_equal(back.margin(table.raw), model.margin(table.raw))
        save_model(back, tmp_path / "m2.json")
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_node_tables_are_fixed_dtype_arrays(self, rng, tmp_path):
        dtypes = {"feature": np.int64, "threshold": np.float64, "left": np.int64,
                  "right": np.int64, "value": np.float64, "cover": np.int64}
        model = train_gbdt(random_table(rng), GbdtHyperParams(n_trees=4, max_depth=3))
        save_model(model, tmp_path / "m.json")
        listed = Tree([0, -1, -1], [0.30000000000000004, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                      [0.0, -0.0, 1e-300], [4, 2, 2])
        for tree in [*model.trees, *load_model(tmp_path / "m.json").trees, listed]:
            for name, dtype in dtypes.items():
                arr = getattr(tree, name)
                assert isinstance(arr, np.ndarray) and arr.dtype == dtype, name
        # model.json holds Python ints and the shortest float reprs, as lists of
        # Python scalars with the same values give.
        for tree in model.trees:
            scalars = {name: [(int if dtype is np.int64 else float)(v) for v in getattr(tree, name)]
                       for name, dtype in dtypes.items()}
            assert json.dumps(tree.to_dict()) == json.dumps(scalars)
        assert json.dumps(listed.to_dict()) == (
            '{"feature": [0, -1, -1], "threshold": [0.30000000000000004, 0.0, 0.0], '
            '"left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, -0.0, 1e-300], '
            '"cover": [4, 2, 2]}'
        )

    def test_format_marker_checked(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_model(tmp_path / "bad.json")

    @pytest.mark.parametrize(
        "tree, located",
        [
            pytest.param(
                Tree([0, 0], [0.5, 0.5], [1, 0], [1, 0], [0.0, 0.0], [2, 2]),
                "tree 0 node 1",
                id="cycle",
            ),
            pytest.param(
                Tree([1, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0] * 3, [2, 1, 1]),
                "tree 0 node 0",
                id="feature_out_of_range",
            ),
            pytest.param(
                Tree([-1, -1], [0.0], [-1, -1], [-1, -1], [0.0, 0.0], [1, 1]),
                "tree 0: node arrays",
                id="ragged",
            ),
        ],
    )
    def test_unfinishable_node_table_rejected(self, tmp_path, tree, located):
        model = GbdtModel(0.0, [tree], ["f0"], {"f0": 0.0}, GbdtHyperParams())
        save_model(model, tmp_path / "m.json")
        with pytest.raises(SchemaError, match=f"m.json: {located}"):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda doc: doc.pop("hyperparams"), id="missing_key"),
            pytest.param(lambda doc: doc["trees"][0]["value"].__setitem__(1, None), id="null_value"),
            pytest.param(lambda doc: doc.__setitem__("medians", [0.5]), id="medians_not_object"),
            pytest.param(lambda doc: doc.__setitem__("base_score", "abc"), id="base_score_text"),
            pytest.param(lambda doc: doc["trees"][0]["threshold"].__setitem__(0, "abc"),
                         id="threshold_text"),
            pytest.param(lambda doc: doc["hyperparams"].__setitem__("n_trees", 0),
                         id="zero_n_trees"),
            pytest.param(lambda doc: doc["trees"][0]["left"].__setitem__(-1, 2**70),
                         id="huge_int"),
            pytest.param(lambda doc: doc["trees"][0]["threshold"].__setitem__(0, 10**400),
                         id="huge_int_threshold"),
            pytest.param(lambda doc: "not json", id="not_json"),
            pytest.param(lambda doc: doc["columns"].__setitem__(1, doc["columns"][0]),
                         id="repeated_column"),
            pytest.param(lambda doc: json.dumps({**doc, "base_score": "N"}).replace('"N"', "9" * 4301),
                         id="int_over_4300_digits"),
        ],
    )
    def test_malformed_model_document_rejected(self, rng, tmp_path, edit):
        """`edit` changes the parsed document in place, or returns the text to write."""
        model = train_gbdt(random_table(rng, n=60), GbdtHyperParams(n_trees=2, max_depth=2))
        save_model(model, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        text = edit(doc)
        if not isinstance(text, str):
            text = json.dumps(doc)
        (tmp_path / "m.json").write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match="m.json: malformed model"):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize(
        "change, located",
        [
            pytest.param({"base_score": math.nan}, "base_score nan", id="nan_base_score"),
            pytest.param({"medians": {}}, "median of column 'f0'", id="missing_median"),
            pytest.param({"medians": {"f0": math.inf}}, "median of column 'f0'", id="inf_median"),
            pytest.param({"threshold": [math.nan, 0.0, 0.0]}, "tree 0 node 0: threshold",
                         id="nan_threshold"),
            pytest.param({"value": [0.0, 0.1, math.inf]}, "tree 0 node 2: value", id="inf_leaf"),
            pytest.param({"cover": [5, 2, 2]}, "tree 0 node 0: cover 5", id="cover_mismatch"),
            pytest.param({"cover": [-2**63, 2**62, 2**62]}, "tree 0 node 0: cover -9223372036854775808",
                         id="cover_sum_wraps_in_int64"),
        ],
    )
    def test_invalid_model_values_rejected(self, tmp_path, change, located):
        stump = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
                 "right": [2, -1, -1], "value": [0.0, 0.1, -0.1], "cover": [4, 2, 2]}
        model_fields = {"base_score": 0.0, "medians": {"f0": 0.5}}
        model_fields.update((k, v) for k, v in change.items() if k in model_fields)
        stump.update((k, v) for k, v in change.items() if k in stump)
        model = GbdtModel(trees=[Tree(**stump)], feature_names=["f0"],
                          hyperparams=GbdtHyperParams(), **model_fields)
        save_model(model, tmp_path / "m.json")
        with pytest.raises(SchemaError, match=f"m.json: {located}"):
            load_model(tmp_path / "m.json")


class TestRankingComparison:
    def test_n3_at_least_n1_minus_one_point(self):
        # More receivers carry more information: paired CV on the same corpus
        # must not lose more than a point going from n=1 to n=3.
        from pitchspace.features import assemble_table, extract_event_features

        pitch = PitchSpec(grid_cell=2.0)
        frames, events, _ = synthesize_match(SynthConfig(passes=400), seed=77)
        feats = extract_event_features(frames, events, pitch, MotionParams(), WeightParams())
        grid = [GbdtHyperParams(n_trees=40, max_depth=3, learning_rate=0.2)]
        accs = {}
        for n in (1, 3):
            table = assemble_table(feats, n, "dist_ball")
            _, results = grid_search_cv(table, grid, k=5, seed=17)
            accs[n] = results[0].mean_accuracy
        assert accs[3] >= accs[1] - 0.01

    def test_dist_ball_rule_selects_dist_ball(self):
        pitch = PitchSpec(grid_cell=2.0)
        frames, events, _ = synthesize_match(SynthConfig(passes=250), seed=42)
        grid = [GbdtHyperParams(n_trees=40, max_depth=3, learning_rate=0.2)]
        report = compare_ranking_variables(
            [(frames, events)], 3, grid, 4, 17, pitch, MotionParams(), WeightParams()
        )
        assert report.best_variable == "dist_ball"
        assert [r.variable for r in report.rows] == [
            "fast_space_vel", "dist_ball", "time_to_player", "time_to_passline"
        ]
        text = format_ranking_table(report)
        assert "0.559" in text  # published reference column
        assert "<- selected" in text
