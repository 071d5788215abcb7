#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check measures it.

    python3 perfbench/spread.py --workloads features-dense render-frames --seeds 1 2 3 4 5

Runs `run.py --trace 0` once per (workload, seed), one run at a time, and prints
for each metric its median and its quartile spread, (Q3 - Q1) / median, next to
the bound in BENCHMARK.json. A benchmark is steady when every spread except
setup_s stays below a third of its bound. `--out FILE` saves the raw results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_stats import quartile_spread

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            result["meta"] = json.loads(next(ln for ln in lines if ln.startswith("meta "))[5:])
            results.setdefault(workload, []).append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            drift = {k: round(v, 1) for k, v in result["meta"]["drift_ref_ms"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} {values} drift_ref_ms={drift}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")

    steady = True
    print(f"\n{'workload':<16}{'metric':<14}{'median':>12}{'spread':>9}{'bound':>7}")
    for workload, runs in results.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            spread = quartile_spread(values) if len(values) >= 2 else float("nan")
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <- above bound/3"
            steady = steady and not flag
            print(f"{workload:<16}{name:<14}{statistics.median(values):>12.5g}{spread:>9.4f}{bound:>7}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
