// Parallel run_plan must be observationally identical to the serial run:
// same cells, same simulated cycle counts, same callback order. Host
// parallelism is allowed to change only wall-clock time, never results —
// that is the determinism contract `archgraph_sweep run --jobs N` exposes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace archgraph::sweep {
namespace {

/// A multi-axis plan mixing both machine models and both input kinds —
/// 12 cells: 2 kernels x (layouts or m values) x machine variants.
SweepPlan mixed_plan() {
  return expand_all({
      "kernel=lr_walk machine=mta:procs={1,2} layout={ordered,random} n=512",
      "kernel=cc_sv_smp machine=smp:procs={1,2} n=128 m={256,512}",
  });
}

/// RunOptions with only `jobs` set (field-by-field: designated aggregate
/// initialization of a partial field list trips -Wmissing-field-initializers).
RunOptions jobs_options(usize jobs) {
  RunOptions options;
  options.jobs = jobs;
  return options;
}

TEST(RunPlanParallel, MatchesSerialResultsExactly) {
  const SweepPlan plan = mixed_plan();
  const PlanRun serial = run_plan(plan, jobs_options(1));
  const PlanRun parallel = run_plan(plan, jobs_options(4));
  ASSERT_EQ(serial.cells.size(), plan.cells.size());
  ASSERT_EQ(parallel.cells.size(), serial.cells.size());
  EXPECT_EQ(parallel.jobs, 4u);
  for (usize i = 0; i < serial.cells.size(); ++i) {
    const CellResult& a = serial.cells[i];
    const CellResult& b = parallel.cells[i];
    EXPECT_EQ(a.cell.run_id(), b.cell.run_id()) << "cell " << i;
    EXPECT_EQ(a.meas.cycles, b.meas.cycles) << a.cell.run_id();
    EXPECT_EQ(a.meas.stats.instructions, b.meas.stats.instructions)
        << a.cell.run_id();
    EXPECT_EQ(a.iterations, b.iterations) << a.cell.run_id();
    EXPECT_EQ(a.verified, b.verified) << a.cell.run_id();
  }
}

std::vector<usize> identity(usize size) {
  std::vector<usize> order(size);
  std::iota(order.begin(), order.end(), usize{0});
  return order;
}

SweepPlan fig2_quick_plan() {
  return expand_all(bench::fig2_sweep_specs(bench::Scale::kQuick));
}

TEST(DispatchOrder, IsAPermutationOfThePlan) {
  const SweepPlan plan = fig2_quick_plan();
  std::vector<usize> order = dispatch_order(plan, 4);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, identity(plan.cells.size()));
}

TEST(DispatchOrder, IsTheIdentityWhenSerial) {
  const SweepPlan plan = fig2_quick_plan();
  EXPECT_EQ(dispatch_order(plan, 1), identity(plan.cells.size()));
}

TEST(DispatchOrder, DefaultEdgeCountRanksLikeFourN) {
  // Cells 0 and 1 tie on n + resolved_m (m=0 means 4n), so the larger
  // machine goes first; cell 2 has fewer edges and goes last. Ranking the
  // raw m=0 would put cell 0 last instead.
  const SweepPlan plan = expand_all({
      "kernel=cc_sv_smp machine=smp:procs=2 n=128 m=0",
      "kernel=cc_sv_smp machine=smp:procs=1 n=128 m=512",
      "kernel=cc_sv_smp machine=smp:procs=8 n=128 m=384",
  });
  EXPECT_EQ(dispatch_order(plan, 4), (std::vector<usize>{0, 1, 2}));
}

TEST(DispatchOrder, TiesKeepPlanOrder) {
  // Equal size and procs everywhere: lists have no edges, so n alone ranks.
  const SweepPlan plan = expand_all({
      "kernel=lr_walk machine=mta:procs=2 layout={ordered,random} n=512",
      "kernel=lr_hj machine=smp:procs=2 layout={ordered,random} n=512",
  });
  EXPECT_EQ(dispatch_order(plan, 4), identity(plan.cells.size()));
}

TEST(DispatchOrder, Fig2StartsWithTheLargestMachinesOnTheLargestGraph) {
  const SweepPlan plan = fig2_quick_plan();
  const std::vector<usize> order = dispatch_order(plan, 4);
  ASSERT_GE(order.size(), 4u);
  i64 max_m = 0;
  for (const SweepCell& cell : plan.cells) max_m = std::max(max_m, cell.m);
  // Plan order is spec (mta, smp, gpu) > m > procs, so the first three
  // claims are the largest-m procs=8 cells in that order; the fourth is
  // the largest-m mta cell on the next-largest machine.
  const std::vector<std::string> expected_machines = {
      "mta:procs=8", "smp:procs=8", "gpu:procs=8", "mta:procs=4"};
  for (usize k = 0; k < 4; ++k) {
    const SweepCell& cell = plan.cells[order[k]];
    EXPECT_EQ(cell.m, max_m) << "claim " << k;
    EXPECT_EQ(cell.machine, expected_machines[k]) << "claim " << k;
  }
}

TEST(DispatchOrder, ComponentsShapeClaimsEveryWideCellFirst) {
  // Fig. 2's shape on procs {1,8}: the three largest-m procs=8 cells and
  // then the largest-m mta:procs=1 cell are the first four claims.
  const SweepPlan plan = expand_all({
      "kernel=cc_sv_mta machine=mta:procs={1,8} n=1024 m={4096,16384}",
      "kernel=cc_sv_smp machine=smp:procs={1,8} n=1024 m={4096,16384}",
      "kernel=cc_sv_mta machine=gpu:procs={1,8} n=1024 m={4096,16384}",
  });
  const std::vector<usize> order = dispatch_order(plan, 4);
  const std::vector<std::string> expected_machines = {
      "mta:procs=8", "smp:procs=8", "gpu:procs=8", "mta"};
  ASSERT_GE(order.size(), 4u);
  for (usize k = 0; k < 4; ++k) {
    const SweepCell& cell = plan.cells[order[k]];
    EXPECT_EQ(cell.m, 16384) << "claim " << k;
    EXPECT_EQ(cell.machine, expected_machines[k]) << "claim " << k;
  }
}

TEST(RunPlanParallel, CallbacksArriveSerializedAndInPlanOrder) {
  const SweepPlan plan = mixed_plan();
  // Workers must really claim cells out of plan order here, or this test
  // would not exercise the in-order drain.
  ASSERT_NE(dispatch_order(plan, 4), identity(plan.cells.size()));
  std::vector<std::string> seen;
  std::atomic<int> in_callback{0};
  const PlanRun run = run_plan(
      plan, jobs_options(4),
      [&](const CellResult& r, usize index, usize total) {
        // on_cell must never run concurrently with itself.
        EXPECT_EQ(in_callback.fetch_add(1), 0);
        EXPECT_EQ(index, seen.size());
        EXPECT_EQ(total, plan.cells.size());
        seen.push_back(r.cell.run_id());
        in_callback.fetch_sub(1);
      });
  ASSERT_EQ(seen.size(), plan.cells.size());
  for (usize i = 0; i < plan.cells.size(); ++i) {
    EXPECT_EQ(seen[i], plan.cells[i].run_id());
  }
  EXPECT_EQ(run.cells.size(), plan.cells.size());
}

TEST(RunPlanParallel, GeneratesEachDistinctInputOnce) {
  // The machine axis is innermost, so cells differing only in the machine
  // spec share one input. This plan has 2 distinct inputs (ordered/random
  // 512-node lists) spread over 8 cells.
  const SweepPlan plan = expand(
      "kernel=lr_walk machine=mta:procs={1,2,4,8} layout={ordered,random} "
      "n=512");
  ASSERT_EQ(plan.cells.size(), 8u);
  const PlanRun parallel = run_plan(plan, jobs_options(4));
  EXPECT_EQ(parallel.inputs_generated, 2u);
  const PlanRun serial = run_plan(plan, jobs_options(1));
  EXPECT_EQ(serial.inputs_generated, 2u);
}

TEST(RunPlanParallel, JobsZeroMeansAutoAndClampsToPlanSize) {
  const SweepPlan plan =
      expand("kernel=lr_walk machine=mta layout=ordered n=256");
  const PlanRun run = run_plan(plan, jobs_options(0));
  // One cell: however many workers the host has, only one is ever used.
  EXPECT_EQ(run.jobs, 1u);
  EXPECT_GE(auto_jobs(), 1u);
}

TEST(RunPlanParallel, CellFailurePropagatesToCaller) {
  SweepPlan plan = mixed_plan();
  plan.cells[5].machine = "vax";  // invalid spec fails inside a worker
  EXPECT_THROW(run_plan(plan, jobs_options(4)), std::logic_error);
}

}  // namespace
}  // namespace archgraph::sweep
