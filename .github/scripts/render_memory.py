"""Traced peak memory of `render` at the default 0.5 m grid, per frame.

    python .github/scripts/render_memory.py WORK_DIR LABEL

It synthesizes a match with 80 kickoff frames into WORK_DIR, renders the
first 20 and then all 80 of them under tracemalloc, and prints one Markdown
line for LABEL: both peaks and their growth per extra frame, in MB (1e6
bytes). This is the measurement of test_render_peak_grows_at_most_a_quarter_mb_per_frame
in tests/test_render_cli.py. It uses the pitchspace package found on
PYTHONPATH.
"""

import contextlib
import gc
import io
import sys
import tracemalloc
from pathlib import Path

CONFIG = "synth.passes = 10\nsynth.kickoff_frames = 80\n"


def main(work: Path, label: str) -> None:
    from pitchspace import cli

    def cli_dispatch(argv):  # the report is the only line printed
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.cli_dispatch(argv)

    work.mkdir(parents=True, exist_ok=True)
    cfg, m = work / "run.cfg", work / "match"
    cfg.write_text(CONFIG, encoding="utf-8")
    common = ["--config", str(cfg)]
    assert cli_dispatch(["synth", *common, "--out", str(m)]) == 0
    match_args = ["--tracking", str(m / "tracking.jsonl"), "--events", str(m / "events.jsonl")]
    peaks = {}
    for frames in (20, 80):
        gc.collect()
        tracemalloc.start()
        try:
            rc = cli_dispatch(["render", *common, *match_args, "--frames", f"0:{frames - 1}",
                               "--out", str(work / f"render{frames}")])
            peaks[frames] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert rc == 0
    print(
        f"{label}: `render` traced peak {peaks[20]:.1f} / {peaks[80]:.1f} MB at 20 / 80 "
        f"frames, {(peaks[80] - peaks[20]) / 60:.3f} MB per frame"
    )


if __name__ == "__main__":
    main(Path(sys.argv[1]), sys.argv[2])
