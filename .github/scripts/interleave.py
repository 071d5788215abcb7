"""In-process A/B timing of two pitchspace source trees, in alternating rounds.

    python .github/scripts/interleave.py BASE_SRC HEAD_SRC [ROUNDS]

BASE_SRC and HEAD_SRC are directories that each hold a `pitchspace`
package. Pairs of separate benchmark processes on a shared machine spread
too widely to resolve a 10% change; timing both trees in one process,
alternately, puts both sides under the same load. The script imports each
package under its own name (`pitchspace_base`, `pitchspace_head`), has the
head copy synthesize one match (the 10 v 10 generator, 60 passes, seed 7),
writes it to a temporary directory, and loads it with each copy's own
loader. At the default configuration (0.5 m grid) it then checks that both
copies draw the same SVG bytes for every pass frame and write the same
`features.csv`, and times two stages per side, ROUNDS times (default 12),
the side that runs first alternating from round to round:

- render: each pass frame oriented, partitioned, scored and drawn as SVG
  text, as the `render-frames` benchmark workload does;
- features: `extract_event_features` over every pass.

For each stage it prints, in Markdown, the median over rounds of base time
over head time (above 1 means head is faster), the smallest and largest of
those ratios, each side's median time per item, and how many rounds each
side was faster. It is a report: it exits 0 whatever it measures, also
when the outputs differ, which it names (a declared behaviour change does
that). Both copies share one heap, so a change in how a stage allocates,
such as more page faults after the allocator trims the heap, shows in
separate processes (the benchmark) and not here.
"""

import gc
import importlib
import importlib.util
import logging
import statistics
import sys
import tempfile
import time
from pathlib import Path

PASSES = 60
SEED = 7
SUBMODULES = ("config", "dominance", "features", "match_io", "render_svg", "synth")


def import_copy(src: Path, name: str) -> dict:
    """The submodules of the pitchspace package under `src`, imported as `name`."""
    init = src / "pitchspace" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {sub: importlib.import_module(f"{name}.{sub}") for sub in SUBMODULES}


class Side:
    """One copy of the package with the match as its own loader reads it."""

    def __init__(self, ps: dict, tracking: Path, events: Path):
        self.ps = ps
        self.cfg = ps["config"].RunConfig()
        frames, events = ps["match_io"].load_match(tracking, events)
        by_index = {f.frame_index: f for f in frames}
        self.frames = frames
        self.passes = [e for e in events if e.type == "pass"]
        self.jobs = [(by_index[e.frame], e.team) for e in self.passes]
        self.opts = ps["render_svg"].RenderOptions(
            show_voronoi_boundaries=self.cfg.render.show_voronoi_boundaries,
            show_scores=self.cfg.render.show_scores,
        )

    def render(self) -> list[str]:
        dominance, cfg = self.ps["dominance"], self.cfg
        docs = []
        for frame, team in self.jobs:
            oriented = self.ps["features"].orient_frame(frame, team)
            excluded = dominance.offside_positions(oriented)
            fld = dominance.compute_dominance_grid(oriented, cfg.pitch, cfg.motion, excluded)
            scores = dominance.space_scores(fld, oriented, cfg.weight)
            docs.append(self.ps["render_svg"].render_frame_svg(oriented, scores, fld, self.opts))
        return docs

    def extract(self) -> list:
        cfg = self.cfg
        return self.ps["features"].extract_event_features(
            self.frames, self.passes, cfg.pitch, cfg.motion, cfg.weight
        )

    def features_csv(self, path: Path) -> bytes:
        table = self.ps["features"].assemble_table(
            self.extract(), self.cfg.feature_n, self.cfg.ranking_variable
        )
        table.to_csv(path)
        return path.read_bytes()


def timed(call) -> float:
    gc.collect()
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def report(stage: str, unit: str, items: int, base: list[float], head: list[float]) -> None:
    ratios = [b / h for b, h in zip(base, head)]
    head_faster = sum(r > 1 for r in ratios)
    base_ms, head_ms = (1e3 * statistics.median(t) / items for t in (base, head))
    print(
        f"- {stage}: base / head time median {statistics.median(ratios):.3f} "
        f"(min {min(ratios):.3f}, max {max(ratios):.3f}); {base_ms:.3f} / {head_ms:.3f} "
        f"ms per {unit}; head faster in {head_faster} of {len(ratios)} rounds, "
        f"base in {len(ratios) - head_faster}"
    )


def main(base_src: Path, head_src: Path, rounds: int) -> None:
    logging.disable(logging.WARNING)  # the loaders' roster notes on the synthetic match
    copies = {"base": import_copy(base_src, "pitchspace_base"),
              "head": import_copy(head_src, "pitchspace_head")}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        synth, match_io = copies["head"]["synth"], copies["head"]["match_io"]
        frames, events, _ = synth.synthesize_match(synth.SynthConfig(passes=PASSES), SEED)
        tracking, event_path = work / "tracking.jsonl", work / "events.jsonl"
        match_io.save_match(frames, events, tracking, event_path)
        sides = {name: Side(ps, tracking, event_path) for name, ps in copies.items()}
        differ = []
        if sides["base"].render() != sides["head"].render():
            differ.append("SVG text")
        if sides["base"].features_csv(work / "base.csv") != sides["head"].features_csv(
            work / "head.csv"
        ):
            differ.append("features.csv")

    stages = {"render": ("frame", "render"), "features": ("pass", "extract")}
    times = {(stage, name): [] for stage in stages for name in sides}
    for r in range(rounds):
        order = ("base", "head") if r % 2 == 0 else ("head", "base")
        for stage, (_, method) in stages.items():
            for name in order:
                times[stage, name].append(timed(getattr(sides[name], method)))

    print(f"### In-process interleaved timing, {rounds} rounds (report only)\n")
    print(f"- base: `{base_src.resolve()}`\n- head: `{head_src.resolve()}`")
    print(f"- outputs: {'differ in ' + ' and '.join(differ) if differ else 'identical'}")
    items = len(sides["head"].jobs)
    for stage, (unit, _) in stages.items():
        report(stage, unit, items, times[stage, "base"], times[stage, "head"])


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    main(Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]) if len(sys.argv) == 4 else 12)
