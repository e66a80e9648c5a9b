#!/usr/bin/env python3
"""Repository benchmark: build it from source and run one workload.

    python3 perfbench/run.py --workload <sql_grid|serve16_mix|trace_stream>
                             --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout. The simulator library and
the perfbench binary are built with CMake into $CARGO_TARGET_DIR (default
.bench_build); the build log goes to stderr. The binary runs the
workload in a fresh process and prints its sim_digest and metrics; the
last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero when the build fails, the
binary fails or times out, or a run fails its checks.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sql_grid", "serve16_mix", "trace_stream")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir: Path) -> Path:
    log = sys.stderr
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=log, stderr=log, check=True, timeout=300)
    subprocess.run(["cmake", "--build", str(bdir), "-j", "4",
                    "--target", "perfbench"],
                   stdout=log, stderr=log, check=True, timeout=840)
    return bdir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the benchmark's own tests)")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(bdir)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark binary timed out", file=sys.stderr)
        return 1

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        ok = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: binary exited {proc.returncode} without a result",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
