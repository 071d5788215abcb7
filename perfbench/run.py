#!/usr/bin/env python3
"""pitchspace benchmark: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload features-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                     # every workload, one process each

Run from the root of a repository checkout; the program is imported from its
`src/`. With `--trace 0` the last stdout line is the JSON result with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics from a
traced run. The lines before it print every metric with its unit and a
`meta` JSON line (digests, checks, drift reference, versions, seed).
See perfbench/README.md for the metric definitions.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # scratch files of a run, removed when it ends
WORKLOAD_NAMES = ("features-dense", "model-search", "render-frames")
END_TO_END = {"items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3  # input preparation (synth, save, load) runs this many times


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0, help="timed phase length")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return ap.parse_args(argv)


def check_checkout() -> None:
    if not (SRC / "pitchspace" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'pitchspace'} not found; run from the root of a repository checkout")


def import_program():
    """Import pitchspace from this checkout's src/, never from elsewhere."""
    check_checkout()
    sys.path.insert(0, str(SRC))
    import pitchspace

    if Path(pitchspace.__file__).resolve().parent != (SRC / "pitchspace").resolve():
        sys.exit(f"error: imported pitchspace from {pitchspace.__file__}, not from {SRC}")
    return pitchspace


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def drift_reference_ms() -> float:
    """Time of a fixed pure-Python plus numpy loop: run metadata that shows
    how fast the machine was, not a gated metric."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.arange(200_000, dtype=np.float64)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return 1000.0 * (time.perf_counter() - t0)


@dataclass
class Tally:
    """Timed blocks of one kind (traced or untraced)."""

    items: int = 0
    blocks: int = 0
    seconds: float = 0.0

    def add(self, items: int, seconds: float) -> None:
        self.items += items
        self.blocks += 1
        self.seconds += seconds

    def rate(self) -> float:
        return self.items / self.seconds if self.seconds else 0.0


def run_workload(args: argparse.Namespace) -> int:
    pitchspace = import_program()
    import logging

    import numpy as np

    from bench_stats import median
    from bench_trace import LAYER_METRICS, Tracer, layer_metrics, pitchspace_targets
    from bench_workloads import WORKLOADS, prepare_inputs

    clock = time.perf_counter
    import_s = clock() - T_START
    logging.getLogger("pitchspace").setLevel(logging.ERROR)  # per-load frame warnings
    drift_before = drift_reference_ms()

    workload = WORKLOADS[args.workload]()
    tracer = Tracer(pitchspace_targets()) if args.trace else None
    if tracer:
        tracer.install()
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            workdir = Path(tmp)
            prep_s = []
            for r in range(SETUP_REPEATS):
                inputs = workdir / f"inputs{r}"
                inputs.mkdir()
                t = clock()
                frames, events = prepare_inputs(workload.passes, args.seed, inputs)
                prep_s.append(clock() - t)
            t = clock()
            workload.setup(frames, events, args.seed, workdir)
            upstream_s = clock() - t
            if tracer:
                tracer.phase = "warmup"
            t = clock()
            workload.warm_up()
            warm_s = clock() - t
            setup_s = import_s + median(prep_s) + upstream_s + warm_s
            if tracer:
                tracer.uninstall()
                tracer.phase = "timed"

            # Timed phase: blocks in cycle order until --seconds of timed work,
            # and at least the blocks the digests cover. A traced run traces
            # every other block, shifting by one each cycle, and runs at least
            # two cycles, so that every block runs both ways.
            attempted = failed = 0
            kept: dict[int, object] = {}
            tally = {False: Tally(), True: Tally()}
            trail = []
            timed_s = 0.0
            k = 0
            min_blocks = max(workload.digest_blocks, 2 * workload.n_blocks if tracer else 0)
            while timed_s < args.seconds or k < min_blocks:
                b = k % workload.n_blocks
                n = workload.block_items(b)
                digested = k < workload.digest_blocks
                traced = bool(tracer) and (b + k // workload.n_blocks) % 2 == 1
                k += 1
                if traced:
                    tracer.install()
                t0 = clock()
                try:
                    out = workload.run_block(b)
                except Exception:
                    traceback.print_exc()
                    out = None
                dt = clock() - t0
                if traced:
                    tracer.uninstall()
                timed_s += dt
                attempted += n + 1  # the block's items and its output check
                if out is None:
                    failed += n + 1
                    continue
                tally[traced].add(n, dt)
                trail.append((b, int(traced), round(dt, 6)))
                if not workload.check_block(b, out):
                    failed += 1
                if digested:
                    kept[b] = workload.keep(out)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            drift_after = drift_reference_ms()

            if len(kept) == workload.digest_blocks:
                if tracer:
                    tracer.phase = "check"
                    tracer.install()
                checks = workload.final_checks(kept)
                if tracer:
                    tracer.uninstall()
                digests = workload.digests(kept, workdir)
            else:
                checks, digests = [("digest blocks completed", False)], {}
            attempted += len(checks)
            failed += sum(1 for _, passed in checks if not passed)
    finally:
        if tracer:
            tracer.uninstall()
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    plain = tally[False]
    if args.trace:
        traced = tally[True]
        overhead = 1.0 - traced.rate() / plain.rate() if plain.rate() else 0.0
        values = layer_metrics(tracer.spans, traced.items, traced.blocks, traced.seconds, overhead)
        units = LAYER_METRICS
    else:
        values = {"items_per_s": plain.rate(), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    meta = {
        "workload": args.workload,
        "item": workload.item,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pitchspace": pitchspace.__version__,
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "drift_ref_ms": {"before": drift_before, "after": drift_after},
        "setup_parts_s": {"import": import_s, "inputs": prep_s, "upstream": upstream_s, "warm_up": warm_s},
        "timed": {
            "blocks": plain.blocks,
            "cycle_blocks": workload.n_blocks,
            "items": plain.items,
            "seconds": plain.seconds,
        },
        "checks": {name: passed for name, passed in checks},
        "trail": trail,  # (block, traced, seconds) in run order
        "digests": digests,
    }
    for name, m in metrics.items():
        print(f"{args.workload:>15}  {name:<50} {m['value']:>14.6g} {m['unit']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, then one combined result line."""
    check_checkout()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # Pinned before numpy is imported, in this process and in every child.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
