import math

import numpy as np
import pytest

from pitchspace import explain
from pitchspace.explain import (
    MAX_PATH_FEATURES, MAX_TREE_TABLE_ROWS, ImportanceSummary, _leaf_games, shap_values,
)
from pitchspace.features import PassSampleTable
from pitchspace.gbdt import GbdtHyperParams, GbdtModel, Tree, train_gbdt

from test_gbdt import make_table, random_table


def leaf_tree(value, cover=10):
    return Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1],
                value=[value], cover=[cover])


def stump(feature, threshold, left_value, right_value, left_cover, right_cover):
    return Tree(
        feature=[feature, -1, -1],
        threshold=[threshold, 0.0, 0.0],
        left=[1, -1, -1],
        right=[2, -1, -1],
        value=[0.0, left_value, right_value],
        cover=[left_cover + right_cover, left_cover, right_cover],
    )


def repeated_feature_tree():
    """Feature 0 splits twice on the path to leaves 3 and 4."""
    return Tree(
        feature=[0, 0, -1, -1, -1],
        threshold=[0.5, -0.5, 0.0, 0.0, 0.0],
        left=[1, 3, -1, -1, -1],
        right=[2, 4, -1, -1, -1],
        value=[0.0, 0.0, 3.0, -1.0, 1.0],
        cover=[10, 6, 4, 2, 4],
    )


def chain_tree(u):
    """A right spine of u splits, on features 0, 1, ..., u - 1, each with a
    leaf on its left: a valid tree whose deepest leaf path splits on all u
    features."""
    internal = range(0, 2 * u, 2)
    return Tree(
        feature=[k // 2 if k in internal else -1 for k in range(2 * u)] + [-1],
        threshold=[0.0] * (2 * u + 1),
        left=[k + 1 if k in internal else -1 for k in range(2 * u)] + [-1],
        right=[k + 2 if k in internal else -1 for k in range(2 * u)] + [-1],
        value=[0.0 if k in internal else 0.01 * (k % 5) for k in range(2 * u)] + [0.05],
        cover=[u - k // 2 + 1 if k in internal else 1 for k in range(2 * u)] + [1],
    )


def full_tree(depth):
    """A full binary tree of the given depth whose nodes at depth d split on
    feature d: 2**depth leaves, each path splitting on all `depth` features."""
    n = (2 << depth) - 1
    internal = (1 << depth) - 1
    return Tree(
        feature=[(i + 1).bit_length() - 1 if i < internal else -1 for i in range(n)],
        threshold=[0.0] * n,
        left=[2 * i + 1 if i < internal else -1 for i in range(n)],
        right=[2 * i + 2 if i < internal else -1 for i in range(n)],
        value=[0.0 if i < internal else 0.01 * (i % 7) for i in range(n)],
        cover=[1 << (depth - (i + 1).bit_length() + 1) for i in range(n)],
    )


def manual_model(trees, n_features, base=0.0):
    return GbdtModel(
        base_score=base,
        trees=trees,
        feature_names=[f"f{j}" for j in range(n_features)],
        medians={f"f{j}": 0.0 for j in range(n_features)},
        hyperparams=GbdtHyperParams(),
    )


# ---------------------------------------------------------------------------
# Brute-force oracle: subset enumeration over the path-dependent value function
# ---------------------------------------------------------------------------

BRUTE_FORCE_MAX_FEATURES = 12


def _descend(tree: Tree, cover: list[int], node: int, row: np.ndarray, mask: int) -> float:
    f = tree.feature[node]
    if f < 0:
        return tree.value[node]
    if (mask >> f) & 1:
        child = tree.left[node] if row[f] <= tree.threshold[node] else tree.right[node]
        return _descend(tree, cover, child, row, mask)
    l, r = tree.left[node], tree.right[node]
    return (
        cover[l] * _descend(tree, cover, l, row, mask)
        + cover[r] * _descend(tree, cover, r, row, mask)
    ) / cover[node]


def _recount_covers(tree: Tree, X: np.ndarray) -> list[int]:
    cover = [0] * len(tree.feature)

    def route(node: int, rows: np.ndarray) -> None:
        cover[node] = len(rows)
        f = tree.feature[node]
        if f < 0:
            return
        mask = X[rows, f] <= tree.threshold[node]
        route(tree.left[node], rows[mask])
        route(tree.right[node], rows[~mask])

    route(0, np.arange(len(X)))
    return cover


def brute_force_shapley(
    model: GbdtModel,
    row: np.ndarray,
    background_table: PassSampleTable | np.ndarray | None = None,
) -> np.ndarray:
    """Exact Shapley values by subset enumeration over the same conditional-
    expectation value function (missing features marginalized by cover-weighted
    descent through both children). Exponential in feature count; limited to
    12 features.

    With a background table the node covers are recounted from it; otherwise
    the training covers stored on the model are used.
    """
    d = len(model.feature_names)
    if d > BRUTE_FORCE_MAX_FEATURES:
        raise ValueError(f"{d} features exceeds the brute-force limit of {BRUTE_FORCE_MAX_FEATURES}")
    row = model.impute(np.asarray(row, dtype=np.float64)[np.newaxis, :])[0]

    covers: list[list[int]] = []
    for tree in model.trees:
        if len(tree.cover) == 0 or tree.cover[0] <= 0:
            raise ValueError("tree lacks training cover counts; attribution needs them")
        if background_table is None:
            covers.append(list(tree.cover))
        else:
            bg = background_table.raw if isinstance(background_table, PassSampleTable) else background_table
            covers.append(_recount_covers(tree, model.impute(np.asarray(bg, dtype=np.float64))))

    v = np.empty(1 << d)
    for mask in range(1 << d):
        v[mask] = sum(
            _descend(tree, cover, 0, row, mask) for tree, cover in zip(model.trees, covers)
        )

    fact = [math.factorial(i) for i in range(d + 1)]
    phi = np.zeros(d)
    for j in range(d):
        bit = 1 << j
        for mask in range(1 << d):
            if mask & bit:
                continue
            s = bin(mask).count("1")
            weight = fact[s] * fact[d - 1 - s] / fact[d]
            phi[j] += weight * (v[mask | bit] - v[mask])
    return phi


# ---------------------------------------------------------------------------
# Per-pattern oracle: one generating-polynomial evaluation per (leaf, pattern),
# reduced with a 1-D dot product and scattered row block by row block. The
# per-leaf pattern tables of `shap_values` must give the same phi bits.
# ---------------------------------------------------------------------------


def per_pattern_leaf_games(tree: Tree) -> list[tuple]:
    """(feats, z, lo, hi, value) for every leaf, features in first-encounter order."""
    games = []

    def walk(node: int, feats: list[int], z: dict, lo: dict, hi: dict) -> None:
        f = tree.feature[node]
        if f < 0:
            games.append((
                np.array(feats, dtype=np.int64),
                np.array([z[ff] for ff in feats]),
                np.array([lo[ff] for ff in feats]),
                np.array([hi[ff] for ff in feats]),
                tree.value[node],
            ))
            return
        t = tree.threshold[node]
        l, r = tree.left[node], tree.right[node]
        c, cl, cr = tree.cover[node], tree.cover[l], tree.cover[r]
        if f not in z:
            feats = feats + [f]
        for child, ratio, branch in ((l, cl / c, "le"), (r, cr / c, "gt")):
            z2, lo2, hi2 = dict(z), dict(lo), dict(hi)
            z2[f] = z.get(f, 1.0) * ratio
            lo2.setdefault(f, -math.inf)
            hi2.setdefault(f, math.inf)
            if branch == "le":
                hi2[f] = min(hi2[f], t)
            else:
                lo2[f] = max(lo2[f], t)
            walk(child, feats, z2, lo2, hi2)

    walk(0, [], {}, {}, {})
    return games


def per_pattern_contrib(z: np.ndarray, value: float, pattern: int) -> np.ndarray:
    """phi contribution of one leaf for one on/off indicator pattern."""
    u = len(z)
    o = np.array([(pattern >> i) & 1 for i in range(u)], dtype=np.float64)
    fact = [math.factorial(i) for i in range(u + 1)]
    weights = np.array([fact[k] * fact[u - 1 - k] / fact[u] for k in range(u)])
    contrib = np.empty(u)
    for j in range(u):
        coeffs = np.zeros(u)
        coeffs[0] = 1.0
        deg = 0
        for f2 in range(u):
            if f2 == j:
                continue
            upper = coeffs[: deg + 1].copy()
            coeffs[: deg + 1] = upper * z[f2]
            coeffs[1 : deg + 2] += upper * o[f2]
            deg += 1
        s = float(coeffs @ weights)
        contrib[j] = value * (o[j] - z[j]) * s
    return contrib


def per_pattern_shap_values(model: GbdtModel, X: np.ndarray) -> tuple[np.ndarray, float]:
    X = model.impute(X)
    phi = np.zeros(X.shape)
    base = model.base_score
    for tree in model.trees:
        base += tree.expected_value()
        for feats, z, lo, hi, value in per_pattern_leaf_games(tree):
            u = len(feats)
            if u == 0:
                continue
            o = (X[:, feats] > lo) & (X[:, feats] <= hi)
            patterns = o.astype(np.int64) @ (1 << np.arange(u, dtype=np.int64))
            for pat in np.unique(patterns):
                rows = patterns == pat
                phi[np.ix_(rows, feats)] += per_pattern_contrib(z, value, int(pat))[np.newaxis, :]
    return phi, float(base)


def pattern_table_case(name):
    """(model, rows) for the bitwise comparison with the per-pattern oracle."""
    r = np.random.default_rng(11)

    def trained(d, inf_frac=0.0, **hp):
        table = random_table(r, n=400, d=d)
        table.raw[r.random(table.raw.shape) < inf_frac] = np.inf  # imputed to medians
        return train_gbdt(table, GbdtHyperParams(learning_rate=0.3, **hp)), table.raw

    on_grid = r.choice([-1.0, -0.5, 0.0, 0.5, 1.0], (50, 3))  # hits the thresholds exactly
    if name == "single_leaf":
        return manual_model([leaf_tree(0.7)], n_features=3, base=0.1), on_grid
    if name == "stump":
        return manual_model([stump(1, 0.0, -1.0, 2.0, 6, 4)], n_features=3), on_grid
    if name == "repeated_feature":
        return manual_model([repeated_feature_tree()], n_features=2), on_grid[:, :2]
    if name == "depth6":
        return trained(8, inf_frac=0.05, n_trees=8, max_depth=6)
    if name == "depth6_three_columns":  # features repeat along most paths
        return trained(3, n_trees=6, max_depth=6)
    if name == "no_path_features":
        model, X = trained(4, n_trees=3, max_depth=3)
        model.trees = [leaf_tree(0.3, cover=400)] + model.trees + [leaf_tree(-0.2, cover=400)]
        return model, X
    if name == "subsample":
        return trained(5, n_trees=10, max_depth=4, subsample=0.8)
    raise ValueError(name)


def shap_row(model: GbdtModel, row: np.ndarray) -> np.ndarray:
    """phi of one row, from a one-row batch."""
    return shap_values(model, row[np.newaxis, :])[0][0]


def summary_of(model: GbdtModel, X: np.ndarray) -> ImportanceSummary:
    return ImportanceSummary.from_phi(model.feature_names, shap_values(model, X)[0])


class TestTreeShapBasics:
    def test_single_leaf_tree(self):
        model = manual_model([leaf_tree(0.7)], n_features=3, base=0.1)
        phi, base = shap_values(model, np.zeros((1, 3)))
        assert np.all(phi == 0.0)
        assert base == pytest.approx(0.8)
        assert model.margin(np.zeros((1, 3)))[0] == pytest.approx(0.8)

    def test_depth_one_tree_single_feature_game(self):
        tree = stump(feature=1, threshold=0.0, left_value=-1.0, right_value=2.0,
                     left_cover=6, right_cover=4)
        model = manual_model([tree], n_features=3)
        expected_value = (6 * -1.0 + 4 * 2.0) / 10.0
        row = np.array([9.0, -1.0, 9.0])  # goes left
        phi = shap_row(model, row)
        assert phi[1] == pytest.approx(-1.0 - expected_value)
        assert phi[0] == phi[2] == 0.0

    def test_missing_covers_error(self):
        bad = Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1],
                   value=[1.0], cover=[0])
        model = manual_model([bad], n_features=1)
        with pytest.raises(ValueError):
            shap_values(model, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            brute_force_shapley(model, np.zeros(1))


class TestPathFeatureBound:
    """A leaf's table holds 2**u rows for the u distinct features on its
    path, so `_leaf_games` refuses a tree with a path over MAX_PATH_FEATURES
    features before it builds any table."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The feature counts of the leaf tables built, each a table of zeros."""
        widths = []

        def zeros(z, value):
            widths.append(len(z))
            return np.zeros((1 << len(z), len(z)))

        monkeypatch.setattr(explain, "_leaf_table", zeros)
        return widths

    def test_path_at_the_bound_is_attributed(self, built):
        games = _leaf_games(chain_tree(MAX_PATH_FEATURES))
        # a leaf under each split, then the deepest leaf, past the last split
        widths = [*range(1, MAX_PATH_FEATURES + 1), MAX_PATH_FEATURES]
        assert [len(feats) for feats, *_ in games] == widths == built

    def test_path_over_the_bound_raises_before_any_table(self, built):
        with pytest.raises(ValueError, match=f"a leaf path splits on {MAX_PATH_FEATURES + 1} "):
            _leaf_games(chain_tree(MAX_PATH_FEATURES + 1))
        assert built == []

    def test_chain_at_the_path_bound_fits_the_tree_bound(self):
        rows = sum(1 << u for u in [*range(1, MAX_PATH_FEATURES + 1), MAX_PATH_FEATURES])
        assert rows <= MAX_TREE_TABLE_ROWS

    def test_tree_over_the_table_bound_raises_before_any_table(self, built):
        # Every path of a full depth-10 tree splits on 10 features, within the
        # path bound, but its 1,024 tables would hold 2**20 rows in all.
        with pytest.raises(ValueError, match=f"would hold {1 << 20} rows; .* {MAX_TREE_TABLE_ROWS}$"):
            _leaf_games(full_tree(10))
        assert built == []


class TestBruteForceOracle:
    def test_single_feature_game(self):
        tree = stump(0, 0.5, -2.0, 1.0, 3, 7)
        model = manual_model([tree], n_features=1)
        expected_value = (3 * -2.0 + 7 * 1.0) / 10.0
        phi = brute_force_shapley(model, np.array([0.0]))
        assert phi[0] == pytest.approx(-2.0 - expected_value, abs=1e-12)

    def test_efficiency_axiom(self, rng):
        table = random_table(rng, n=200, d=5)
        model = train_gbdt(table, GbdtHyperParams(n_trees=4, max_depth=3))
        X = model.impute(table.raw)
        for i in range(10):
            phi = brute_force_shapley(model, X[i])
            margin = float(model.margin(X[i : i + 1])[0])
            expected = model.base_score + sum(t.expected_value() for t in model.trees)
            assert abs(phi.sum() - (margin - expected)) < 1e-12

    def test_symmetry_axiom_duplicate_features(self):
        # AND-shaped tree symmetric in features 0 and 1 with equal covers.
        tree = Tree(
            feature=[0, 1, -1, -1, -1],
            threshold=[0.5, 0.5, 0.0, 0.0, 0.0],
            left=[1, 3, -1, -1, -1],
            right=[2, 4, -1, -1, -1],
            value=[0.0, 0.0, 0.0, 1.0, 0.0],
            cover=[8, 4, 4, 2, 2],
        )
        model = manual_model([tree], n_features=2)
        phi = brute_force_shapley(model, np.array([0.0, 0.0]))
        assert phi[0] == pytest.approx(phi[1], abs=1e-12)
        ts = shap_row(model, np.array([0.0, 0.0]))
        assert ts[0] == pytest.approx(ts[1], abs=1e-12)

    def test_feature_limit(self):
        model = manual_model([leaf_tree(1.0)], n_features=13)
        with pytest.raises(ValueError):
            brute_force_shapley(model, np.zeros(13))

    def test_background_table_recounts_covers(self, rng):
        table = random_table(rng, n=150, d=4)
        model = train_gbdt(table, GbdtHyperParams(n_trees=3, max_depth=3))
        X = model.impute(table.raw)
        # Routing the training table itself reproduces the stored covers.
        phi_stored = brute_force_shapley(model, X[0])
        phi_recount = brute_force_shapley(model, X[0], background_table=table)
        assert np.allclose(phi_stored, phi_recount, atol=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "case",
        ["single_leaf", "stump", "repeated_feature", "depth6", "depth6_three_columns",
         "no_path_features", "subsample"],
    )
    def test_pattern_tables_match_per_pattern_oracle_bitwise(self, case):
        model, X = pattern_table_case(case)
        phi, base = shap_values(model, X)
        phi_ref, base_ref = per_pattern_shap_values(model, X)
        assert phi.tobytes() == phi_ref.tobytes()
        assert base == base_ref

    def test_random_small_ensembles(self, rng):
        worst = 0.0
        for seed in range(4):
            r = np.random.default_rng(seed)
            table = random_table(r, n=300, d=4)
            model = train_gbdt(table, GbdtHyperParams(n_trees=5, max_depth=3,
                                                      learning_rate=0.3))
            X = model.impute(table.raw)
            for i in range(25):
                bf = brute_force_shapley(model, X[i])
                ts = shap_row(model, X[i])
                worst = max(worst, float(np.max(np.abs(bf - ts))))
        assert worst < 1e-9

    def test_duplicated_feature_on_path(self):
        # Feature 0 appears twice on a path; duplicate-feature merging must
        # match the subset-enumeration oracle.
        model = manual_model([repeated_feature_tree()], n_features=2)
        for x0 in (-1.0, 0.0, 1.0):
            row = np.array([x0, 0.0])
            bf = brute_force_shapley(model, row)
            ts = shap_row(model, row)
            assert np.allclose(bf, ts, atol=1e-12)


class TestProperties:
    def test_local_accuracy_everywhere(self, rng):
        table = random_table(rng, n=400, d=6)
        model = train_gbdt(table, GbdtHyperParams(n_trees=40, max_depth=4,
                                                  learning_rate=0.2))
        phi, base = shap_values(model, table.raw)
        margins = model.margin(table.raw)
        err = np.abs(base + phi.sum(axis=1) - margins)
        assert float(err.max()) < 1e-6

    def test_dummy_feature_gets_exact_zero(self, rng):
        table = random_table(rng, n=300, d=6)
        X = np.column_stack([table.raw, np.full(len(table), 0.123)])  # constant column
        t2 = make_table(X, table.labels)
        model = train_gbdt(t2, GbdtHyperParams(n_trees=20, max_depth=3))
        used = {f for tree in model.trees for f in tree.feature if f >= 0}
        assert 6 not in used  # constant column can never split
        phi, _ = shap_values(model, X)
        assert np.all(phi[:, 6] == 0.0)

    def test_additivity_across_trees(self, rng):
        table = random_table(rng, n=200, d=5)
        model = train_gbdt(table, GbdtHyperParams(n_trees=8, max_depth=3))
        X = model.impute(table.raw)
        phi_full, _ = shap_values(model, X[:20])
        phi_sum = np.zeros_like(phi_full)
        for tree in model.trees:
            single = GbdtModel(
                base_score=0.0, trees=[tree], feature_names=model.feature_names,
                medians=model.medians, hyperparams=model.hyperparams,
            )
            phi_t, _ = shap_values(single, X[:20])
            phi_sum += phi_t
        assert np.max(np.abs(phi_full - phi_sum)) < 1e-9


class TestSummary:
    def test_constant_model_all_zero(self, rng):
        model = manual_model([leaf_tree(0.4)], n_features=4)
        table = make_table(rng.normal(0, 1, (30, 4)), np.array([0, 1] * 15))
        summary = summary_of(model, table.raw)
        assert np.all(summary.mean_abs == 0.0)
        assert sorted(summary.rank.tolist()) == [1, 2, 3, 4]

    def test_single_row_summary_is_abs_phi(self, rng):
        table = random_table(rng, n=100, d=4)
        model = train_gbdt(table, GbdtHyperParams(n_trees=10, max_depth=3))
        one = table.subset([0])
        summary = summary_of(model, one.raw)
        phi, _ = shap_values(model, one.raw)
        assert np.allclose(summary.mean_abs, np.abs(phi[0]), atol=1e-12)

    def test_empty_table_errors(self, rng):
        table = random_table(rng, n=50, d=4)
        model = train_gbdt(table, GbdtHyperParams(n_trees=5))
        with pytest.raises(ValueError):
            summary_of(model, table.raw[:0])

    def test_signal_feature_ranks_first(self, rng):
        # Labels depend only on column 2; it must top the importance ranking.
        X = rng.normal(0, 1, (500, 5))
        y = (rng.random(500) < 1 / (1 + np.exp(-3.0 * X[:, 2]))).astype(np.int64)
        table = make_table(X, y)
        model = train_gbdt(table, GbdtHyperParams(n_trees=30, max_depth=3,
                                                  learning_rate=0.2))
        summary = summary_of(model, table.raw)
        assert summary.top_feature() == "f2"

    def test_csv_export(self, rng, tmp_path):
        table = random_table(rng, n=80, d=4)
        model = train_gbdt(table, GbdtHyperParams(n_trees=5))
        summary = summary_of(model, table.raw)
        summary.to_csv(tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "feature,mean_abs_shap,rank,q05,q25,q50,q75,q95"
        assert len(lines) == 5
        assert lines[1].split(",")[2] == "1"  # sorted by rank
