"""Traced peak memory of `render` at the default 0.5 m grid, per frame.

    python .github/scripts/render_memory.py WORK_DIR LABEL

It measures two cases, each in its own match synthesized into WORK_DIR: the
kickoff frames of a match with 80 of them (frames 0, 1, ...), and the pass
frames of a match with 80 passes after 60 kickoff frames (frames 111, 121,
...). For each it renders the first of those frames untraced, so that the
tables cached per pitch count in neither peak, then the first 20 and all 80
of them under tracemalloc, and prints one Markdown line for LABEL: both
peaks and their growth per extra frame, in MB (1e6 bytes). These are the
measurements of test_render_peak_grows_at_most_a_quarter_mb_per_frame in
tests/test_render_cli.py. It uses the pitchspace package found on PYTHONPATH.
"""

import contextlib
import gc
import io
import sys
import tracemalloc
from pathlib import Path

# name: (config, first frame, frame step)
CASES = {
    "kickoff": ("synth.passes = 10\nsynth.kickoff_frames = 80\n", 0, 1),
    "pass": ("synth.passes = 80\nsynth.kickoff_frames = 60\n", 111, 10),
}


def main(work: Path, label: str) -> None:
    from pitchspace import cli

    def cli_dispatch(argv):  # the report is the only line printed
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.cli_dispatch(argv)

    for name, (config, first, step) in CASES.items():
        root = work / name
        root.mkdir(parents=True, exist_ok=True)
        cfg, m = root / "run.cfg", root / "match"
        cfg.write_text(config, encoding="utf-8")
        common = ["--config", str(cfg)]
        assert cli_dispatch(["synth", *common, "--out", str(m)]) == 0
        match_args = ["--tracking", str(m / "tracking.jsonl"), "--events", str(m / "events.jsonl")]
        assert cli_dispatch(["render", *common, *match_args, "--frames", f"{first}:{first}",
                             "--out", str(root / "warm-up")]) == 0
        peaks = {}
        for frames in (20, 80):
            gc.collect()
            tracemalloc.start()
            try:
                rc = cli_dispatch(["render", *common, *match_args,
                                   "--frames", f"{first}:{first + (frames - 1) * step}",
                                   "--out", str(root / f"render{frames}")])
                peaks[frames] = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
            assert rc == 0
        print(
            f"{label}: `render` traced peak {peaks[20]:.1f} / {peaks[80]:.1f} MB at 20 / 80 "
            f"{name} frames, {(peaks[80] - peaks[20]) / 60:.3f} MB per frame"
        )


if __name__ == "__main__":
    main(Path(sys.argv[1]), sys.argv[2])
