"""The benchmark's arithmetic: turns perfbench_host's raw document into the
end-to-end and per-layer metrics, checks records, and derives the paper-shape
ratios. Pure functions, so perfbench/test_metrics.py can check them on
synthetic inputs.
"""

import hashlib
import json
import statistics
from collections import defaultdict
from itertools import zip_longest
from typing import Dict, List, Optional, Sequence, Tuple

MACHINES = ("mta", "smp", "gpu")

# name -> unit, in the order they are printed.
END_TO_END = {
    "wall_s": "s",
    "minstr_per_core_s": "Minstr/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

MACHINE_METRICS = {
    "run_s": "s",
    "minstr_per_s": "Minstr/s",
    "events_per_instr": "count",
    "ns_per_event": "ns",
    "accesses_per_instr": "count",
    "retries_per_instr": "count",
}

PER_LAYER = {
    "graph.make_input_s": "s",
    "graph.inputs_built": "count",
    "sweep.expand_s": "s",
    "sweep.input_reuse": "ratio",
    "sweep.emit_s": "s",
    "sim.make_machine_s": "s",
}
for _m in MACHINES:
    PER_LAYER.update({f"sim.{_m}.{k}": u for k, u in MACHINE_METRICS.items()})
PER_LAYER.update({
    "sim.smp.l1_hit_ratio": "ratio",
    "core.verify_s": "s",
    "rt.busy_frac": "ratio",
    "trace.overhead": "ratio",
})


def ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    """num / den, or None ("n/a") when either side is missing or den is 0."""
    if num is None or den is None or den == 0:
        return None
    return num / den


def fmt(value: Optional[float]) -> str:
    """A metric for the readout: 'n/a' for a missing value, never 0 or nan."""
    return "n/a" if value is None else f"{value:.6g}"


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def spread(values: Sequence[float]) -> float:
    """Quartile distance over median, as statistics.quantiles(n=4) gives it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def busy_frac(cell_s: float, jobs: int, wall_s: float) -> Optional[float]:
    """Share of the workers' wall time spent inside cells."""
    return ratio(cell_s, jobs * wall_s)


def digest(lines: Sequence[str]) -> str:
    """sha256 of the lines as a JSONL file (each newline-terminated)."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def record_failures(lines: Sequence[str], pinned: Optional[str],
                    reference: Optional[Sequence[str]] = None) -> int:
    """Cells of one pass whose records fail the zero-drift check.

    With a pinned digest (the default seed), any difference fails the whole
    pass, since the digest cannot say which line moved. A reference (the
    untraced records, for the traced pass) fails each line that differs.
    """
    if pinned is not None and digest(lines) != pinned:
        return len(lines)
    if reference is not None:
        return sum(a != b for a, b in zip_longest(lines, reference))
    return 0


def self_times(spans: List[dict]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Spans are {"parent": index or -1, "start": s, "end": s}; overlapping
    children are merged so no interval is subtracted twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cur_start, cur_end = 0.0, None, None
        kids = sorted((max(spans[c]["start"], s["start"]),
                       min(spans[c]["end"], s["end"])) for c in children[i])
        for start, end in kids:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_times(spans: List[dict]) -> Dict[str, Tuple[float, float, int]]:
    """span name -> (total duration, total self time, count)."""
    selfs = self_times(spans)
    out: Dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for s, self_s in zip(spans, selfs):
        row = out[s["name"]]
        row[0] += s["end"] - s["start"]
        row[1] += self_s
        row[2] += 1
    return {k: tuple(v) for k, v in out.items()}


def end_to_end(doc: dict) -> Dict[str, Optional[float]]:
    reps = doc["reps"]
    # With --trace 1 a serial reference repetition may follow the first.
    reps = [r for r in reps if r["jobs"] == reps[0]["jobs"]] if reps else []
    return {
        "wall_s": median([r["wall_s"] for r in reps]),
        "minstr_per_core_s": median(
            [r["instructions"] / r["cell_s"] / 1e6 for r in reps
             if r["cell_s"] > 0]),
        "setup_s": median(
            [s["expand_s"] + s["make_input_s"] for s in doc["setup"]]),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }


def per_layer(doc: dict) -> Dict[str, Optional[float]]:
    traced = doc["traced"]
    spans = traced["spans"]
    names = [s["name"] for s in spans]
    selfs = self_times(spans)
    by_name: Dict[str, float] = defaultdict(float)
    for name, self_s in zip(names, selfs):
        by_name[name] += self_s

    cells = traced["cells"]
    out: Dict[str, Optional[float]] = {
        "graph.make_input_s": by_name["graph.make_input"],
        "graph.inputs_built": float(traced["inputs_built"]),
        "sweep.expand_s": by_name["sweep.expand"],
        "sweep.input_reuse": ratio(len(cells), traced["inputs_built"]),
        "sweep.emit_s": by_name["sweep.emit"],
        "sim.make_machine_s": by_name["sim.make_machine"],
    }
    for m in MACHINES:
        mine = [c for c in cells if c["arch"] == m]
        if not mine:
            out.update({f"sim.{m}.{k}": None for k in MACHINE_METRICS})
            continue
        instr = sum(c["instructions"] for c in mine)
        events = sum(c["events"] for c in mine)
        run_s = by_name[f"sim.{m}.run"]
        out.update({
            f"sim.{m}.run_s": run_s,
            f"sim.{m}.minstr_per_s": ratio(instr / 1e6, run_s),
            f"sim.{m}.events_per_instr": ratio(events, instr),
            f"sim.{m}.ns_per_event": ratio(run_s * 1e9, events),
            f"sim.{m}.accesses_per_instr": ratio(
                sum(c["accesses"] for c in mine), instr),
            f"sim.{m}.retries_per_instr": ratio(
                sum(c["sync_retries"] for c in mine), instr),
        })
    smp = [c for c in cells if c["arch"] == "smp"]
    out["sim.smp.l1_hit_ratio"] = ratio(
        sum(c["l1_hits"] for c in smp),
        sum(c["memory_ops"] for c in smp)) if smp else None
    out["core.verify_s"] = by_name["core.verify"]

    # The untraced cell time excludes input generation, so the traced side
    # does too.
    traced_cell_s = sum(s["end"] - s["start"] for s in spans
                        if s["name"] == "cell") - by_name["graph.make_input"]
    reps = doc["reps"]
    out["rt.busy_frac"] = (busy_frac(reps[0]["cell_s"], reps[0]["jobs"],
                                     reps[0]["wall_s"]) if reps else None)
    # Against a serial untraced repetition, as the traced pass is serial.
    serial = [r["cell_s"] for r in reps if r["jobs"] == 1]
    out["trace.overhead"] = ratio(traced_cell_s, serial[0]) if serial else None
    return out


# (label, numerator selector, denominator selector, paper low, paper high).
# A selector is (kernel, arch, procs, layout or None, n or m = largest).
PAPER_SHAPES = [
    ("SMP random/ordered (LR, p=1)",
     ("lr_hj", "smp", 1, "random"), ("lr_hj", "smp", 1, "ordered"), 3.0, 4.0),
    ("MTA random/ordered (LR, p=1)",
     ("lr_walk", "mta", 1, "random"), ("lr_walk", "mta", 1, "ordered"),
     1.0, 1.0),
    ("SMP/MTA ordered (LR, p=8)",
     ("lr_hj", "smp", 8, "ordered"), ("lr_walk", "mta", 8, "ordered"),
     10.0, 10.0),
    ("SMP/MTA random (LR, p=8)",
     ("lr_hj", "smp", 8, "random"), ("lr_walk", "mta", 8, "random"),
     35.0, 35.0),
    ("CC SMP/MTA (p=8)",
     ("cc_sv_smp", "smp", 8, None), ("cc_sv_mta", "mta", 8, None), 5.0, 6.0),
]


def relative_error(value: float, lo: float, hi: float) -> float:
    """0 inside the paper's range, else the distance to its nearer end as a
    share of that end."""
    if value < lo:
        return (value - lo) / lo
    if value > hi:
        return (value - hi) / hi
    return 0.0


def _simulated_seconds(records: List[dict], kernel: str, arch: str,
                       procs: int, layout: Optional[str]) -> Optional[float]:
    rows = [r for r in records if r["kernel"] == kernel and r["arch"] == arch
            and r["procs"] == procs
            and (layout is None or r["layout"] == layout)]
    if not rows:
        return None
    size = max(max(r["n"], r["m"]) for r in rows)
    return next(r["seconds"] for r in rows if max(r["n"], r["m"]) == size)


def paper_shapes(lines: Sequence[str]) -> List[tuple]:
    """(label, measured ratio, paper low, paper high, relative error) for
    every shape whose cells are in `lines`, at the largest size present."""
    records = [json.loads(line) for line in lines if line]
    out = []
    for label, num, den, lo, hi in PAPER_SHAPES:
        value = ratio(_simulated_seconds(records, *num),
                      _simulated_seconds(records, *den))
        if value is not None:
            out.append((label, value, lo, hi, relative_error(value, lo, hi)))
    return out
