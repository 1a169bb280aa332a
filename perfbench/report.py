"""Run every workload once and print each metric by name, with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 50] [--trace]

Without --trace it prints the end-to-end metrics of an untraced run of each
workload; with --trace the per-layer metrics of a traced run, including each
layer's share of the traced self time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: run failed\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = result["metrics"]
        print(f"== {workload}: {result['attempted']} questions, {result['failed']} failed, "
              f"correct {result['correct']}")
        busy = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        for name, m in metrics.items():
            share = f"  ({m['value'] / busy:.1%} of self time)" if name.endswith(".self_s") and busy else ""
            print(f"  {name:32} {m['value']:>14.6g} {m['unit']}{share}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
