"""Benchmark entry point: run one workload in a fresh process and print its result.

    python3 perfbench/run.py --workload train-ihvit --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The workload runs in a child
interpreter with ``src`` on the import path, BLAS pinned to one thread and
``IHVIT_THREADS`` pinned to the usable core count, so set-up time and peak
memory belong to that workload alone.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train-ihvit", "eval-ihvit", "prep-mixedres")
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be between 1 and 60")

    root = Path.cwd()
    if not (root / "src" / "ihvit" / "__init__.py").is_file():
        print("perfbench: no src/ihvit here; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["IHVIT_THREADS"] = str(len(os.sched_getaffinity(0)))

    cmd = [sys.executable, str(Path(__file__).with_name("workload.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: workload did not finish within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"perfbench: workload exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
