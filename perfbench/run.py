#!/usr/bin/env python3
"""The host benchmark: one workload per run, end-to-end or per-layer.

    python3 perfbench/run.py --workload listrank|components|short_cells
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. It builds perfbench_host (the repository's
library targets plus perfbench/host_bench.cpp, Release) under .bench_build/,
or under $CARGO_TARGET_DIR when that is set, then runs the workload.

--trace 0 measures the untraced sweep::run_plan path and reports the
end-to-end metrics. --trace 1 runs the plan once untraced and then a serial
traced pass, and reports the per-layer metrics. Both check every output: the
kernels against the sequential oracles, every record against the digest
pinned for the default seed, and the traced records against the untraced
ones byte for byte. A human-readable readout comes first; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every cell passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
from workloads import (DEFAULT_SEED, MAX_SEED, PINNED_DIGESTS,  # noqa: E402
                       WORKLOADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; the program gets what is left after the build.
PROGRAM_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        p.error(f"--seed must be in [0, {MAX_SEED})")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def build() -> Path:
    """Configures once, then builds incrementally; returns the binary."""
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_host", "-j", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                sys.exit("perfbench: build failed:\n" + "\n".join(tail))
    return build_dir / "perfbench_host"


def evaluate(name, seed, doc, trace):
    """Checks the records and computes the metrics; returns the result line
    and the readout lines."""
    pinned = PINNED_DIGESTS[name] if seed == DEFAULT_SEED else None
    records = doc["records"]
    drifted = metrics.record_failures(records, pinned)
    failed = doc["failed"] + drifted
    if pinned is None:
        pin_note = "not pinned for this seed: oracles only"
    else:
        pin_note = "pinned: " + ("MISMATCH" if drifted else "match")
    jobs = doc["reps"][0]["jobs"] if doc["reps"] else "n/a"
    readout = [f"workload {name}: {doc['cells']} cells, seed {seed}, "
               f"jobs {jobs}, {len(doc['reps'])} untraced repetition(s)",
               f"  records sha256 {metrics.digest(records)} ({pin_note})"]
    if trace:
        traced = doc["traced"]["records"]
        failed += metrics.record_failures(traced, pinned, reference=records)
        same = traced == records
        readout.append("  traced records "
                       + ("byte-identical to untraced" if same
                          else "DIFFER from untraced"))
    failed = min(failed, doc["attempted"])
    for error in doc["errors"]:
        readout.append(f"  error: {error}")

    e2e = metrics.end_to_end(doc)
    readout.append("end-to-end (untraced):")
    for key, unit in metrics.END_TO_END.items():
        readout.append(f"  {key:<24} {metrics.fmt(e2e[key]):>12} {unit}")
    readout.append(f"  {'failed_frac':<24} "
                   f"{metrics.fmt(failed / doc['attempted']):>12} ratio")

    shapes = metrics.paper_shapes(records)
    if shapes:
        readout.append("paper shapes (simulated seconds; informational — the "
                       "model is validated only against these published "
                       "ratios):")
        for label, value, lo, hi, err in shapes:
            paper = f"{lo:g}x" if lo == hi else f"{lo:g}-{hi:g}x"
            readout.append(f"  {label:<30} {value:8.3f}x  paper {paper:<7} "
                           f"rel. error {err:+.1%}")

    if trace:
        layer = metrics.per_layer(doc)
        readout.append("per-layer (serial traced pass):")
        for key, unit in metrics.PER_LAYER.items():
            readout.append(f"  {key:<28} {metrics.fmt(layer[key]):>12} {unit}")
        readout.append("span self time:")
        table = metrics.layer_times(doc["traced"]["spans"])
        total = table["workload"][0]
        for span, (dur, self_s, count) in sorted(
                table.items(), key=lambda kv: -kv[1][1]):
            readout.append(f"  {span:<20} {count:>6}x  self {self_s:10.4f} s"
                           f"  ({self_s / total:6.1%})  total {dur:10.4f} s")
        chosen, units = layer, metrics.PER_LAYER
    else:
        chosen, units = e2e, metrics.END_TO_END

    result = {
        "correct": failed == 0,
        "attempted": doc["attempted"],
        "failed": failed,
        # A metric with no value (a machine absent from the workload) is
        # shown as n/a in the readout and left out here.
        "metrics": {k: {"value": chosen[k], "unit": u}
                    for k, u in units.items() if chosen[k] is not None},
    }
    return result, readout


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    binary = build()
    jobs = min(workload.jobs, os.cpu_count() or 1)
    cmd = [str(binary), "--jobs", str(jobs), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + workload.specs(args.seed)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROGRAM_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within "
                 f"{PROGRAM_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: perfbench_host exited {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    result, readout = evaluate(args.workload, args.seed, doc, args.trace)
    print("\n".join(readout))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
