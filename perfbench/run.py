"""Benchmark entry point: runs one workload in its own process.

    python3 perfbench/run.py --workload toy_incremental --seed 0 --seconds 30 --trace 0

Run from the repository root. The library is imported from ./src. BLAS and
OpenMP thread counts are pinned to 1 in the child's environment before
numpy loads. The child prints its environment record, the final-parameter
digests and, as its last line, the result JSON.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("toy_incremental", "image_sorted", "text_er_long")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    if not (root / "src" / "ocdgr" / "__init__.py").is_file():
        print(f"run.py: no ocdgr sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(bench_dir)])
    for var in ("MNIST_DIR", "UCI_DNA_PATH"):
        env.pop(var, None)
    cmd = [sys.executable, str(bench_dir / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=env, cwd=root, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: workload exceeded {CHILD_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
