"""The benchmark workloads: pass features, model search and frame rendering.

Each workload builds its inputs from the run seed through the library's own
synth -> save_match -> load_match round trip, prepares any upstream stage in
`setup`, and then exposes a cycle of timed blocks. A block is one call (or a
few calls) into the stage under test; `block_items` says how many items it
completes. Checks and digests run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from pitchspace import dominance, explain, features, gbdt, match_io, render_svg, synth
from pitchspace.config import RunConfig
from pitchspace.pitch import PitchSpec

CFG = RunConfig()  # default pitch (0.5 m grid), motion and weight parameters
RULE = {"dist_ball": -0.2}
CV_K = 5
CV_SEED = CFG.cv_seed


def prepare_inputs(passes: int, seed: int, workdir: Path) -> tuple[list, list]:
    """Synthesize a 10v10 match, write it to disk and load it back."""
    frames, events, _ = synth.synthesize_match(
        synth.SynthConfig(passes=passes, rule_coeffs=dict(RULE)), seed
    )
    tracking, event_path = workdir / "tracking.jsonl", workdir / "events.jsonl"
    match_io.save_match(frames, events, tracking, event_path)
    return match_io.load_match(tracking, event_path)


def _chunks(seq: list, size: int) -> list[list]:
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _feature_table_1m(frames: list, events: list) -> features.PassSampleTable:
    table, _ = features.build_dataset(
        [(frames, events)], CFG.feature_n, CFG.ranking_variable,
        PitchSpec(grid_cell=1.0), CFG.motion, CFG.weight,
    )
    return table


def _csv_digest(table: features.PassSampleTable, workdir: Path) -> str:
    path = workdir / "features.csv"
    table.to_csv(path)
    return _sha256(path.read_bytes())


class Workload:
    name = ""
    item = ""  # what one counted item is; the reasons for each workload are in README.md
    passes = 0  # pass events in the synthetic match
    digest_blocks = 0  # leading blocks whose outputs the digests cover

    def setup(self, frames: list, events: list, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.run_block(0)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_items(self, b: int) -> int:
        raise NotImplementedError

    def run_block(self, b: int):
        raise NotImplementedError

    def check_block(self, b: int, out) -> bool:
        """A cheap check of one block's output, made after it is timed."""
        return True

    def keep(self, out):
        """What the digests and final checks need of a block's output."""
        return out

    def final_checks(self, outputs: dict[int, object]) -> list[tuple[str, bool]]:
        """Checks over the kept outputs of the first `digest_blocks` blocks."""
        return []

    def digests(self, outputs: dict[int, object], workdir: Path) -> dict[str, str]:
        raise NotImplementedError


class FeaturesDense(Workload):
    name = "features-dense"
    item = "pass"
    passes = 80
    block_passes = 4
    sampled_passes = 2  # passes checked against the naive recomputation

    def setup(self, frames, events, seed, workdir):
        self.frames = frames
        self.frame_by_index = {f.frame_index: f for f in frames}
        self.blocks = _chunks([e for e in events if e.type == "pass"], self.block_passes)
        self.digest_blocks = self.n_blocks
        self.rng = np.random.default_rng(seed)

    def block_items(self, b):
        return len(self.blocks[b])

    def run_block(self, b):
        return features.extract_event_features(
            self.frames, self.blocks[b], CFG.pitch, CFG.motion, CFG.weight
        )

    def final_checks(self, outputs):
        pairs = [
            (ev, ef)
            for b in range(self.digest_blocks)
            for ev, ef in zip(self.blocks[b], outputs[b])
        ]
        picks = self.rng.choice(len(pairs), size=self.sampled_passes, replace=False)
        return [
            (f"naive deltas {pairs[i][0].event_id}", self._matches_naive(*pairs[i]))
            for i in sorted(picks)
        ]

    def _matches_naive(self, ev, ef) -> bool:
        """Fast-path deltas and the pass's features equal the naive
        compute_dominance_grid -> space_scores -> directional_space_deltas bitwise."""
        pitch, mp, w = CFG.pitch, CFG.motion, CFG.weight
        frame = features.orient_frame(self.frame_by_index[ev.frame], ev.team)
        excluded = dominance.offside_positions(frame)
        ids = sorted(
            p.player_id
            for p in frame.players
            if p.team == dominance.ATTACKING and p.player_id != ev.player and p.player_id not in excluded
        )
        if [f.player_id for f in ef.features] != ids:
            return False
        if not ids:
            return True
        fast = dominance.batch_scores_with_deltas(frame, pitch, mp, w, ids, excluded)
        naive = dominance.space_scores(
            dominance.compute_dominance_grid(frame, pitch, mp, excluded), frame, w
        )
        for f in ef.features:
            deltas = dominance.directional_space_deltas(frame, f.player_id, pitch, mp, w, excluded)
            variation = deltas[int(np.argmax(np.abs(deltas)))]
            if (
                fast.entries[f.player_id].deltas.tobytes() != deltas.tobytes()
                or _bits(f.fast_space_vel) != _bits(naive.score(f.player_id))
                or _bits(f.variation_space_vel) != _bits(variation)
            ):
                return False
        return True

    def digests(self, outputs, workdir):
        event_features = [ef for b in range(self.digest_blocks) for ef in outputs[b]]
        table = features.assemble_table(event_features, CFG.feature_n, CFG.ranking_variable)
        return {"features_csv": _csv_digest(table, workdir)}


class ModelSearch(Workload):
    name = "model-search"
    item = "tree requested"
    passes = 600
    digest_blocks = 1
    depths = (2, 4)
    n_trees = (3, 6, 12)  # nested: each smaller model is a prefix of the larger

    def setup(self, frames, events, seed, workdir):
        self.table = _feature_table_1m(frames, events)
        self.grid = [
            gbdt.GbdtHyperParams(n_trees=n, max_depth=d, learning_rate=0.3)
            for d in self.depths
            for n in self.n_trees
        ]
        self.blocks = [self.grid]
        self.reference = None

    def warm_up(self):
        pass  # a block is a whole grid search; nothing in it is lazily initialized

    def block_items(self, b):
        return sum(hp.n_trees for hp in self.grid) * CV_K

    def run_block(self, b):
        return gbdt.grid_search_cv(self.table, self.grid, CV_K, CV_SEED)

    def check_block(self, b, out):
        """Every repeat of the search returns the same fold accuracies."""
        accs = [r.fold_accuracies for r in out[1]]
        if self.reference is None:
            self.reference = accs
        return accs == self.reference

    def final_checks(self, outputs):
        """The smallest-n_trees config of each depth equals direct train_gbdt
        fits, and the best config, refit on the whole table, explains every
        row with local accuracy |base + sum(phi) - margin| <= 1e-6."""
        best, results = outputs[0]
        folds = gbdt.stratified_kfold(self.table.labels, CV_K, CV_SEED)
        checks = []
        for i, hp in enumerate(self.grid):
            if hp.n_trees != min(self.n_trees):
                continue
            accs = []
            for f in range(CV_K):
                train_idx = np.concatenate([folds[j] for j in range(CV_K) if j != f])
                model = gbdt.train_gbdt(self.table.subset(train_idx), hp)
                val = self.table.subset(folds[f])
                probs = model.predict_proba_batch(val.raw)
                accs.append(float(np.mean((probs >= 0.5).astype(np.int64) == val.labels)))
            checks.append((f"direct fits depth {hp.max_depth}", accs == results[i].fold_accuracies))
        self.best_model = gbdt.train_gbdt(self.table, best)
        self.phi, self.base = explain.shap_values(self.best_model, self.table.raw)
        margin = self.best_model.margin(self.table.raw)
        local = np.all(np.abs(self.base + self.phi.sum(axis=1) - margin) <= 1e-6)
        checks.append(("best config local accuracy", bool(local)))
        return checks

    def digests(self, outputs, workdir):
        best, results = outputs[0]
        doc = {
            "best": [best.max_depth, best.n_trees],
            "folds": [[r.hyperparams.max_depth, r.hyperparams.n_trees, r.fold_accuracies] for r in results],
        }
        path = workdir / "model.json"
        gbdt.save_model(self.best_model, path)
        return {
            "features_csv": _csv_digest(self.table, workdir),
            "cv_results": _sha256(json.dumps(doc).encode()),
            "model_json": _sha256(path.read_bytes()),
            "phi": _sha256(self.phi.tobytes() + _bits(self.base)),
        }


class RenderFrames(Workload):
    name = "render-frames"
    item = "frame"
    passes = 120
    block_frames = 4

    def setup(self, frames, events, seed, workdir):
        by_index = {f.frame_index: f for f in frames}
        jobs = [(by_index[e.frame], e.team) for e in events if e.type == "pass"]
        self.blocks = _chunks(jobs, self.block_frames)
        self.digest_blocks = self.n_blocks
        self.opts = render_svg.RenderOptions(
            show_voronoi_boundaries=CFG.render.show_voronoi_boundaries,
            show_scores=CFG.render.show_scores,
        )

    def block_items(self, b):
        return len(self.blocks[b])

    def run_block(self, b):
        out = []
        for frame, team in self.blocks[b]:
            oriented = features.orient_frame(frame, team)
            excluded = dominance.offside_positions(oriented)
            fld = dominance.compute_dominance_grid(oriented, CFG.pitch, CFG.motion, excluded)
            scores = dominance.space_scores(fld, oriented, CFG.weight)
            out.append((fld, render_svg.render_frame_svg(oriented, scores, fld, self.opts)))
        return out

    def check_block(self, b, out):
        """Owned cells sum to nx * ny in every frame."""
        cells = CFG.pitch.nx * CFG.pitch.ny
        return all(sum(fld.owned_cell_counts().values()) == cells for fld, _ in out)

    def keep(self, out):
        return [hashlib.sha256(svg.encode()).digest() for _, svg in out]

    def digests(self, outputs, workdir):
        return {"svg": _sha256(b"".join(h for b in range(self.digest_blocks) for h in outputs[b]))}


WORKLOADS = {w.name: w for w in (FeaturesDense, ModelSearch, RenderFrames)}
