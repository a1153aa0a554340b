"""Run every workload over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --runs 10 --out .perfbench_out/spread.json

For each workload and metric it prints the median, the quartiles and the
spread: the distance between the first and third quartile as a share of
the median, from ``statistics.quantiles(values, n=4)``.  Runs are
sequential; every run uses its own seed (``--first-seed`` onwards).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=200, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarise(results: list[dict]) -> dict:
    out = {"runs": len(results), "all_correct": all(r["correct"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "wall_s": [r["wall_s"] for r in results], "metrics": {}}
    for m in BENCH["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out["metrics"][m["name"]] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": m["bound"], "values": values}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")

    workloads = args.workload or [w["name"] for w in BENCH["workloads"]]
    summary = {}
    for wl in workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        summary[wl] = summarise([run(wl, s, BENCH["run_seconds"]) for s in seeds])
        print(f"{wl}: {args.runs} runs, all correct: {summary[wl]['all_correct']}, "
              f"longest run {max(summary[wl]['wall_s']):.1f} s")
        for name, m in summary[wl]["metrics"].items():
            print(f"  {name:22s} median {m['median']:.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.3f} (bound {m['bound']})")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
