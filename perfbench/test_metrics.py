#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic, on synthetic inputs.

    python3 -m unittest discover -s perfbench
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
import run  # noqa: E402
from workloads import DEFAULT_SEED, PINNED_DIGESTS, WORKLOADS  # noqa: E402


def span(name, parent, start, end):
    return {"name": name, "id": "", "parent": parent, "start": start,
            "end": end}


def cell(arch, instructions, events, accesses=0, retries=0, l1=0, mem=0):
    return {"arch": arch, "instructions": instructions, "events": events,
            "accesses": accesses, "sync_retries": retries, "l1_hits": l1,
            "memory_ops": mem}


def record(kernel, arch, procs, layout, n, m, seconds):
    return json.dumps({"kernel": kernel, "arch": arch, "procs": procs,
                       "layout": layout, "n": n, "m": m, "seconds": seconds})


DEFAULT_RECORDS = [
    '{"kernel":"lr_walk","arch":"mta","procs":1,"layout":"random","n":8,'
    '"m":0,"seconds":1.0}',
    '{"kernel":"lr_hj","arch":"smp","procs":1,"layout":"random","n":8,'
    '"m":0,"seconds":2.0}',
]


def doc(cells, spans, inputs_built=1, reps=None, records=None):
    records = records or DEFAULT_RECORDS
    return {
        "cells": len(cells),
        "setup": [{"expand_s": 0.001, "make_input_s": s, "inputs": 1}
                  for s in (0.01, 0.03, 0.02)],
        "reps": reps or [{"wall_s": 2.0, "cell_s": 6.0, "instructions": 3e6,
                          "inputs_generated": inputs_built, "jobs": 4},
                         {"wall_s": 5.0, "cell_s": 5.0, "instructions": 3e6,
                          "inputs_generated": inputs_built, "jobs": 1}],
        "records": list(records),
        "peak_rss_kb": 2048,
        "attempted": 4,
        "failed": 0,
        "errors": [],
        "traced": {"cells": cells, "spans": spans,
                   "inputs_built": inputs_built,
                   "records": list(records)},
    }


class SelfTime(unittest.TestCase):
    def test_tree(self):
        spans = [
            span("workload", -1, 0.0, 10.0),
            span("cell", 0, 1.0, 4.0),
            span("sim.mta.run", 1, 2.0, 3.0),
            span("cell", 0, 5.0, 9.0),
            span("core.verify", 3, 5.5, 6.0),
            span("sweep.emit", 3, 8.0, 9.0),
        ]
        self.assertEqual(metrics.self_times(spans),
                         [3.0, 2.0, 1.0, 2.5, 0.5, 1.0])
        table = metrics.layer_times(spans)
        self.assertEqual(table["cell"], (7.0, 4.5, 2))

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            span("parent", -1, 0.0, 10.0),
            span("a", 0, 1.0, 4.0),
            span("b", 0, 3.0, 6.0),
            span("c", 0, 8.0, 12.0),  # clipped to the parent's end
        ]
        self.assertAlmostEqual(metrics.self_times(spans)[0], 10.0 - 5.0 - 2.0)

    def test_self_times_sum_to_root_duration(self):
        spans = [span("w", -1, 0.0, 7.0), span("x", 0, 1.0, 3.0),
                 span("y", 1, 1.5, 2.5), span("z", 0, 4.0, 6.0)]
        self.assertAlmostEqual(sum(metrics.self_times(spans)), 7.0)


class Ratios(unittest.TestCase):
    def test_busy_frac(self):
        self.assertAlmostEqual(metrics.busy_frac(6.0, 4, 2.0), 0.75)
        self.assertAlmostEqual(metrics.busy_frac(5.0, 1, 5.0), 1.0)
        self.assertIsNone(metrics.busy_frac(1.0, 4, 0.0))

    def test_per_layer_ratios(self):
        spans = [
            span("workload", -1, 0.0, 10.0),
            span("sweep.expand", 0, 0.0, 0.5),
            span("cell", 0, 1.0, 9.0),
            span("graph.make_input", 2, 1.0, 2.0),
            span("sim.make_machine", 2, 2.0, 2.5),
            span("sim.mta.run", 2, 2.5, 6.5),
            span("core.verify", 2, 6.5, 7.0),
            span("sweep.emit", 2, 7.0, 7.25),
            span("cell", 0, 9.0, 10.0),
            span("sim.smp.run", 8, 9.0, 10.0),
        ]
        cells = [cell("mta", 8_000_000, 24_000_000, accesses=4_000_000,
                      retries=800_000),
                 cell("smp", 2_000_000, 2_000_000, accesses=1_000_000,
                      l1=750_000, mem=1_000_000)]
        layer = metrics.per_layer(doc(cells, spans))
        self.assertAlmostEqual(layer["sim.mta.run_s"], 4.0)
        self.assertAlmostEqual(layer["sim.mta.minstr_per_s"], 2.0)
        self.assertAlmostEqual(layer["sim.mta.events_per_instr"], 3.0)
        self.assertAlmostEqual(layer["sim.mta.ns_per_event"], 4e9 / 24e6)
        self.assertAlmostEqual(layer["sim.mta.accesses_per_instr"], 0.5)
        self.assertAlmostEqual(layer["sim.mta.retries_per_instr"], 0.1)
        self.assertAlmostEqual(layer["sim.smp.l1_hit_ratio"], 0.75)
        self.assertAlmostEqual(layer["sweep.input_reuse"], 2.0)
        self.assertAlmostEqual(layer["graph.make_input_s"], 1.0)
        self.assertAlmostEqual(layer["sweep.expand_s"], 0.5)
        self.assertAlmostEqual(layer["core.verify_s"], 0.5)
        self.assertAlmostEqual(layer["sweep.emit_s"], 0.25)
        self.assertAlmostEqual(layer["rt.busy_frac"], 0.75)
        # Traced cell time without input generation (9 - 1) over the serial
        # untraced repetition's cell time (5).
        self.assertAlmostEqual(layer["trace.overhead"], 8.0 / 5.0)

    def test_absent_machine_is_na_not_zero_or_nan(self):
        spans = [span("workload", -1, 0.0, 1.0), span("cell", 0, 0.0, 1.0),
                 span("sim.mta.run", 1, 0.0, 1.0)]
        layer = metrics.per_layer(doc([cell("mta", 10, 30)], spans))
        for key in metrics.MACHINE_METRICS:
            self.assertIsNone(layer[f"sim.gpu.{key}"])
            self.assertEqual(metrics.fmt(layer[f"sim.gpu.{key}"]), "n/a")
        self.assertIsNone(layer["sim.smp.l1_hit_ratio"])
        self.assertEqual(metrics.fmt(layer["sim.mta.events_per_instr"]), "3")
        result, readout = run.evaluate("listrank", DEFAULT_SEED + 1,
                                       doc([cell("mta", 10, 30)], spans),
                                       trace=1)
        for key in metrics.MACHINE_METRICS:
            self.assertNotIn(f"sim.gpu.{key}", result["metrics"])
        gpu_lines = [line for line in readout if "sim.gpu." in line]
        self.assertTrue(gpu_lines)
        for line in gpu_lines:
            self.assertIn("n/a", line)
            self.assertNotIn("nan", line)

    def test_end_to_end_uses_medians_of_parallel_reps(self):
        reps = [{"wall_s": w, "cell_s": 4.0, "instructions": 8e6,
                 "inputs_generated": 1, "jobs": 4} for w in (3.0, 1.0, 2.0)]
        e2e = metrics.end_to_end(doc([], [], reps=reps))
        self.assertEqual(e2e["wall_s"], 2.0)
        self.assertAlmostEqual(e2e["minstr_per_core_s"], 2.0)
        self.assertAlmostEqual(e2e["setup_s"], 0.021)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 2.0)

    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(metrics.spread(values),
                               (q3 - q1) / statistics.median(values))


class Digest(unittest.TestCase):
    LINES = [line.replace('"seconds":', '"cycles":100,"seconds":')
             for line in DEFAULT_RECORDS]

    def test_digest_is_the_jsonl_file_sha256(self):
        import hashlib
        text = "".join(line + "\n" for line in self.LINES).encode()
        self.assertEqual(metrics.digest(self.LINES),
                         hashlib.sha256(text).hexdigest())

    def test_one_changed_byte_fails_the_pass(self):
        pinned = metrics.digest(self.LINES)
        self.assertEqual(metrics.record_failures(self.LINES, pinned), 0)
        changed = [self.LINES[0], self.LINES[1].replace("100", "101")]
        self.assertEqual(metrics.record_failures(changed, pinned), 2)
        self.assertEqual(
            metrics.record_failures(changed, None, reference=self.LINES), 1)
        self.assertEqual(
            metrics.record_failures(self.LINES[:1], None,
                                    reference=self.LINES), 1)

    def test_drift_makes_the_run_incorrect(self):
        spans = [span("workload", -1, 0.0, 1.0)]
        good = doc([], spans, records=self.LINES)
        name = "components"
        saved = PINNED_DIGESTS[name]
        try:
            PINNED_DIGESTS[name] = metrics.digest(self.LINES)
            result, _ = run.evaluate(name, DEFAULT_SEED, good, trace=1)
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]),
                             set(metrics.PER_LAYER) - {
                                 f"sim.{m}.{k}" for m in metrics.MACHINES
                                 for k in metrics.MACHINE_METRICS}
                             - {"sim.smp.l1_hit_ratio"})
            drifted = json.loads(json.dumps(good))
            drifted["traced"]["records"][1] = self.LINES[1].replace("1", "3")
            result, readout = run.evaluate(name, DEFAULT_SEED, drifted,
                                           trace=1)
            self.assertFalse(result["correct"])
            self.assertIn("  traced records DIFFER from untraced", readout)
            result, _ = run.evaluate(name, DEFAULT_SEED, drifted, trace=0)
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), set(metrics.END_TO_END))
            drifted["records"][0] = self.LINES[0] + " "
            result, _ = run.evaluate(name, DEFAULT_SEED, drifted, trace=0)
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], 2)
        finally:
            PINNED_DIGESTS[name] = saved


class FailedRun(unittest.TestCase):
    def test_a_plan_that_threw_reports_incorrect_without_crashing(self):
        failed = doc([], [span("workload", -1, 0.0, 1.0)])
        failed.update(reps=[], records=[], failed=4)
        result, readout = run.evaluate("listrank", DEFAULT_SEED + 1, failed,
                                       trace=0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 4)
        self.assertNotIn("wall_s", result["metrics"])
        self.assertIn("n/a", next(l for l in readout if "wall_s" in l))


class PaperShapes(unittest.TestCase):
    def test_relative_error(self):
        self.assertEqual(metrics.relative_error(3.5, 3.0, 4.0), 0.0)
        self.assertAlmostEqual(metrics.relative_error(2.4, 3.0, 4.0), -0.2)
        self.assertAlmostEqual(metrics.relative_error(7.0, 5.0, 6.0), 1 / 6)
        self.assertAlmostEqual(metrics.relative_error(31.5, 35.0, 35.0), -0.1)

    def test_shapes_use_largest_size(self):
        lines = [
            record("lr_hj", "smp", 1, "random", 1000, 0, 99.0),
            record("lr_hj", "smp", 1, "ordered", 1000, 0, 1.0),
            record("lr_hj", "smp", 1, "random", 2000, 0, 7.0),
            record("lr_hj", "smp", 1, "ordered", 2000, 0, 2.0),
            record("cc_sv_smp", "smp", 8, "random", 10, 40, 6.0),
            record("cc_sv_mta", "mta", 8, "random", 10, 40, 1.0),
        ]
        shapes = {label: (value, err)
                  for label, value, _, _, err in metrics.paper_shapes(lines)}
        self.assertEqual(set(shapes), {"SMP random/ordered (LR, p=1)",
                                       "CC SMP/MTA (p=8)"})
        self.assertAlmostEqual(shapes["SMP random/ordered (LR, p=1)"][0], 3.5)
        self.assertEqual(shapes["SMP random/ordered (LR, p=1)"][1], 0.0)
        self.assertAlmostEqual(shapes["CC SMP/MTA (p=8)"][0], 6.0)


class Workloads(unittest.TestCase):
    def test_seed_fills_the_seed_axis(self):
        for name, workload in WORKLOADS.items():
            a, b = workload.specs(DEFAULT_SEED), workload.specs(7)
            self.assertNotEqual(a, b, name)
            self.assertEqual(a, workload.specs(DEFAULT_SEED), name)

    def test_short_cells_inputs_are_unshared(self):
        seeds = []
        for spec in WORKLOADS["short_cells"].specs(3):
            group = spec.split("seed={")[1].rstrip("}")
            seeds += group.split(",")
        self.assertEqual(len(seeds), len(set(seeds)))


if __name__ == "__main__":
    unittest.main()
