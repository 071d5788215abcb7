"""Exact per-instance Shapley attribution for the tree ensemble.

Attributions use the path-dependent value function: a feature subset S maps
to the model output where features outside S are marginalized by descending
both children weighted by training cover counts. Per leaf this reduces to a
product game over the path's unique features, solved exactly with a small
generating polynomial once per on/off pattern; the brute-force subset
enumeration over the same value function lives in the tests as the oracle.

All attributions are in margin (log-odds) units.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gbdt import GbdtModel, Tree

# Distinct features one leaf path may split on: a leaf's table holds 2**u rows
# of u values, 8.4 MB at u = 16, and its size and build time more than double
# with each further feature.
MAX_PATH_FEATURES = 16


@dataclass
class ImportanceSummary:
    """Corpus-level attribution summary (beeswarm-style export)."""

    feature_names: list[str]
    mean_abs: np.ndarray
    rank: np.ndarray  # 1-based rank per feature, 1 = most important
    quantile_levels: tuple[float, ...]
    quantiles: np.ndarray  # (n_features, n_levels) of signed phi

    @classmethod
    def from_phi(cls, feature_names: list[str], phi: np.ndarray) -> "ImportanceSummary":
        """Mean |phi| per feature with descending ranks and a signed quantile
        sketch. A sum of |phi| over the rows, or a quantile's interpolation,
        can overflow for finite phi: that raises OverflowError."""
        if len(phi) == 0:
            raise ValueError("summary requires a non-empty table")
        levels = (0.05, 0.25, 0.5, 0.75, 0.95)
        try:
            with np.errstate(over="raise"):
                mean_abs = np.mean(np.abs(phi), axis=0)
                quantiles = np.quantile(phi, levels, axis=0).T
        except FloatingPointError:
            raise OverflowError(f"the attribution summary of {len(phi)} rows overflows") from None
        order = np.lexsort((np.arange(len(mean_abs)), -mean_abs))  # ties by column index
        rank = np.empty(len(mean_abs), dtype=np.int64)
        rank[order] = np.arange(1, len(mean_abs) + 1)
        return cls(
            feature_names=list(feature_names),
            mean_abs=mean_abs,
            rank=rank,
            quantile_levels=levels,
            quantiles=quantiles,
        )

    def top_feature(self) -> str:
        return self.feature_names[int(np.argmin(self.rank))]

    def to_csv(self, path: str | Path) -> None:
        order = np.argsort(self.rank)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["feature", "mean_abs_shap", "rank"]
                + [f"q{int(q * 100):02d}" for q in self.quantile_levels]
            )
            for j in order:
                writer.writerow(
                    [self.feature_names[j], repr(float(self.mean_abs[j])), int(self.rank[j])]
                    + [repr(float(v)) for v in self.quantiles[j]]
                )


def _leaf_games(tree: Tree) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(feats, lo, hi, table) for every leaf with at least one path feature.

    Each leaf is a product game over the unique features on its path, in
    first-encounter order: o_f(x) = indicator that x satisfies every branch of
    feature f on the path (an interval test lo < x_f <= hi); z_f = product of
    the path's cover ratios for f's branches, in path order. `table` holds the
    leaf's phi contribution for every on/off pattern (see `_leaf_table`).
    A path over more than MAX_PATH_FEATURES features raises ValueError before
    any table is built.
    """
    if tree.cover.size == 0 or tree.cover[0] <= 0:
        raise ValueError("tree lacks training cover counts; attribution needs them")
    paths = []  # (z, lo, hi, leaf value) per leaf with a path feature
    # an explicit stack, so a deep tree cannot exhaust the recursion limit;
    # the left child is popped first, so leaves come in preorder
    stack: list[tuple[int, dict, dict, dict]] = [(0, {}, {}, {})]
    while stack:
        node, z, lo, hi = stack.pop()
        f = tree.feature[node]
        if f < 0:
            if z:
                paths.append((z, lo, hi, tree.value[node]))
            continue
        t = tree.threshold[node]
        l, r, c = tree.left[node], tree.right[node], tree.cover[node]
        stack.append((r, {**z, f: z.get(f, 1.0) * (tree.cover[r] / c)},
                      {**lo, f: max(lo.get(f, -math.inf), t)}, hi))
        stack.append((l, {**z, f: z.get(f, 1.0) * (tree.cover[l] / c)}, lo,
                      {**hi, f: min(hi.get(f, math.inf), t)}))
    widest = max((len(z) for z, *_ in paths), default=0)
    if widest > MAX_PATH_FEATURES:
        raise ValueError(
            f"a leaf path splits on {widest} distinct features; attribution takes at most"
            f" {MAX_PATH_FEATURES}"
        )
    games = []
    for z, lo, hi, value in paths:
        feats = list(z)  # dicts keep insertion order: first-encounter feature order
        games.append((
            np.array(feats, dtype=np.int64),
            np.array([lo.get(g, -math.inf) for g in feats]),
            np.array([hi.get(g, math.inf) for g in feats]),
            _leaf_table(np.array([z[g] for g in feats]), value),
        ))
    return games


def _shapley_weights(u: int) -> np.ndarray:
    """w[k] = k! (u-1-k)! / u! for subset sizes k = 0..u-1."""
    fact = [math.factorial(i) for i in range(u + 1)]
    return np.array([fact[k] * fact[u - 1 - k] / fact[u] for k in range(u)])


def _leaf_table(z: np.ndarray, value: float) -> np.ndarray:
    """(2**u, u) phi contributions of one leaf, one row per on/off pattern.

    Row p sets o_i = bit i of p. Column j expands the generating polynomial
    prod_{f != j} (z_f + o_f t) into its coefficients and weighs them with
    the Shapley weights; `np.vecdot` is the reduction that rounds like the 1-D
    `coeffs @ weights` of a single pattern (batched matmul does not).
    """
    u = len(z)
    o = ((np.arange(1 << u)[:, np.newaxis] >> np.arange(u)) & 1).astype(np.float64)
    weights = _shapley_weights(u)
    table = np.empty((1 << u, u))
    for j in range(u):
        coeffs = np.zeros((1 << u, u))
        coeffs[:, 0] = 1.0
        deg = 0
        for f2 in range(u):
            if f2 == j:
                continue
            # multiply by (z + o*t)
            upper = coeffs[:, : deg + 1].copy()
            coeffs[:, : deg + 1] = upper * z[f2]
            coeffs[:, 1 : deg + 2] += upper * o[:, f2 : f2 + 1]
            deg += 1
        table[:, j] = value * (o[:, j] - z[j]) * np.vecdot(coeffs, weights)
    return table


def shap_values(model: GbdtModel, X: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-feature attributions for a batch, plus the shared base value.

    base + phi.sum(axis=1) reconstructs the margin row-exactly.
    """
    X = model.impute(X)
    phi = np.zeros(X.shape)
    base = model.base_score
    for tree in model.trees:
        games = _leaf_games(tree)  # validates cover counts before any division
        base += tree.expected_value()
        for feats, lo, hi, table in games:
            o = (X[:, feats] > lo) & (X[:, feats] <= hi)
            patterns = o.astype(np.int64) @ (1 << np.arange(len(feats), dtype=np.int64))
            phi[:, feats] += table[patterns]
    return phi, float(base)

