#!/usr/bin/env python3
"""Steadiness check: runs one workload once per seed and prints, for every
end-to-end metric, its median and its quartile spread (Q3 - Q1) / median.

    python3 perfbench/steady.py --workload components --seeds 2,3,4,5,6
                                [--seconds 35]

A metric is steady enough when its spread is well below its bound in
BENCHMARK.json (set-up time is exempt from the spread rule).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--seconds", default="35")
    args = p.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in metrics.END_TO_END}
    for seed in args.seeds.split(","):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", seed, "--seconds", args.seconds,
             "--trace", "0"], stdout=subprocess.PIPE, text=True,
            cwd=HERE.parent)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = []
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            row.append(f"{name}={values[name][-1]:.5g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    for name, vals in values.items():
        s = metrics.spread(vals) if len(vals) > 1 else float("nan")
        print(f"{args.workload} {name:<20} median {metrics.median(vals):.5g} "
              f"spread {s:.2%} bound {bounds.get(name, float('nan')):.0%}")


if __name__ == "__main__":
    main()
