// Golden-value determinism pins for all three machine models. The values
// below were captured from the pre-restructure simulator (the committed
// baselines' generation) and must never move: hot-loop rework — event-queue
// levels, ready-ring layouts, SoA scheduling state, event batching — may
// change how fast the host simulates, never what it simulates. A failure
// here means simulated behavior drifted; fix the restructure, don't re-bake
// the goldens.
#include <gtest/gtest.h>

#include "sim/stats.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "sweep/store.hpp"

namespace archgraph::sweep {
namespace {

using sim::CycleCat;

struct Golden {
  const char* spec;
  i64 cycles;
  i64 instructions;
  i64 memory_ops;
  // (category, slots) pairs for every non-zero accounting bucket; all other
  // buckets must be exactly zero.
  std::vector<std::pair<CycleCat, sim::Cycle>> acct;
  // SMP coherence counters (MachineStats, not in the JSONL record); zero on
  // the other machines.
  i64 invalidations = 0;
  i64 interventions = 0;
};

/// One cell per machine model, shaped like the ci grid's cells: list
/// ranking on the fine-grain machines' fig1 path, Shiloach-Vishkin CC for
/// the SIMT model so divergence/coalescing accounting is exercised too;
/// then MTA cells on the spec edges its scheduler treats specially.
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> g = {
      {"kernel=lr_walk machine=mta:procs=2 n=1024 layout=random",
       33455,
       16897,
       13697,
       {{CycleCat::kIssued, 16897},
        {CycleCat::kNoReadyStream, 35182},
        {CycleCat::kIdleNoThread, 14831}}},
      {"kernel=lr_hj machine=smp:procs=2,l2_kb=256 n=1024 layout=random",
       127157,
       13514,
       10370,
       {{CycleCat::kIssued, 21822},
        {CycleCat::kL1MissWait, 16611},
        {CycleCat::kL2MissWait, 13839},
        {CycleCat::kMemFillWait, 115090},
        {CycleCat::kBusContention, 13187},
        {CycleCat::kBarrierWait, 43654},
        {CycleCat::kIdle, 30111}},
       481,
       478},
      {"kernel=cc_sv_mta machine=gpu:procs=2 n=512 m=4096 layout=random",
       298316,
       7675,
       74007,
       {{CycleCat::kIssued, 3876},
        {CycleCat::kIdleNoThread, 127309},
        {CycleCat::kDivergenceSerial, 3799},
        {CycleCat::kCoalesceWait, 458295},
        {CycleCat::kBankConflict, 3353}}},
      // MTA spec edges, captured before the MTA event loop moved ready and
      // next-cycle issue events off its timed queue: a zero-overhead
      // barrier (releases due at the issuing cycle, or behind it), no fork
      // ramp, few streams, non-uniform memory and unhashed banks. The lr_hj
      // cells are the barrier-bearing ones; lr_walk and cc_sv_mta are
      // multi-region.
      {"kernel=lr_walk machine=mta:procs=2,barrier=0 n=1024 layout=random",
       33455,
       16897,
       13697,
       {{CycleCat::kIssued, 16897},
        {CycleCat::kNoReadyStream, 35182},
        {CycleCat::kIdleNoThread, 14831}}},
      {"kernel=lr_walk machine=mta:procs=2,fork=0 n=1024 layout=random",
       30127,
       16897,
       13697,
       {{CycleCat::kIssued, 16897},
        {CycleCat::kNoReadyStream, 35182},
        {CycleCat::kIdleNoThread, 8175}}},
      {"kernel=lr_walk machine=mta:procs=2,streams=4 n=1024 layout=random",
       179987,
       16409,
       13209,
       {{CycleCat::kIssued, 16409},
        {CycleCat::kNoReadyStream, 330753},
        {CycleCat::kIdleNoThread, 12812}}},
      {"kernel=lr_walk machine=mta:procs=4,streams=1,barrier=0,fork=0 n=1024 "
       "layout=ordered",
       343835,
       16397,
       13197,
       {{CycleCat::kIssued, 16397},
        {CycleCat::kNoReadyStream, 1332916},
        {CycleCat::kIdleNoThread, 26027}}},
      {"kernel=cc_sv_mta machine=mta:procs=2,numa=40 n=512 m=4096 "
       "layout=random",
       111885,
       109116,
       74025,
       {{CycleCat::kIssued, 109116},
        {CycleCat::kNoReadyStream, 111367},
        {CycleCat::kIdleNoThread, 3287}}},
      {"kernel=cc_sv_mta machine=mta:procs=2,hash=0 n=512 m=4096 "
       "layout=random",
       93774,
       109071,
       73992,
       {{CycleCat::kIssued, 109071},
        {CycleCat::kNoReadyStream, 74529},
        {CycleCat::kIdleNoThread, 3948}}},
      {"kernel=cc_sv_mta machine=mta:procs=4,barrier=0,streams=8 n=512 "
       "m=4096 layout=random",
       383134,
       160164,
       107616,
       {{CycleCat::kIssued, 160164},
        {CycleCat::kNoReadyStream, 1361783},
        {CycleCat::kIdleNoThread, 10589}}},
      {"kernel=lr_hj machine=mta:procs=2,barrier=0 n=1024 layout=random",
       660361,
       13514,
       10370,
       {{CycleCat::kIssued, 13514},
        {CycleCat::kNoReadyStream, 1047370},
        {CycleCat::kBarrier, 259325},
        {CycleCat::kIdleNoThread, 513}}},
      {"kernel=lr_hj machine=mta:procs=4,barrier=0,streams=8,fork=0 n=1024 "
       "layout=ordered",
       289346,
       13720,
       10502,
       {{CycleCat::kIssued, 13720},
        {CycleCat::kNoReadyStream, 1060704},
        {CycleCat::kBarrier, 82958},
        {CycleCat::kIdleNoThread, 2}}},
      // SMP spec edges, captured before the SMP moved to a flat coherence
      // directory, run-ahead dispatch and packed cache ways: 8 and 3
      // processors (a non-power-of-two sharer mask), 2-way L1 with 32 B
      // lines, free RMWs with a zero-cost barrier and no fork ramp, and CC's
      // pointer chase through a small L2. All pin the coherence counters.
      {"kernel=lr_hj machine=smp:procs=8 n=1024 layout=random",
       108872,
       14132,
       10766,
       {{CycleCat::kIssued, 21610},
        {CycleCat::kL1MissWait, 4200},
        {CycleCat::kL2MissWait, 39585},
        {CycleCat::kMemFillWait, 326465},
        {CycleCat::kBusContention, 55369},
        {CycleCat::kBarrierWait, 390367},
        {CycleCat::kIdle, 33380}},
       1654,
       1601},
      {"kernel=lr_hj machine=smp:procs=3 n=1024 layout=random",
       122429,
       13617,
       10436,
       {{CycleCat::kIssued, 21617},
        {CycleCat::kL1MissWait, 13524},
        {CycleCat::kL2MissWait, 21000},
        {CycleCat::kMemFillWait, 173960},
        {CycleCat::kBusContention, 24592},
        {CycleCat::kBarrierWait, 87090},
        {CycleCat::kIdle, 25504}},
       850,
       836},
      {"kernel=lr_hj machine=smp:procs=2,l1_ways=2,line=32 n=1024 "
       "layout=random",
       190239,
       13514,
       10370,
       {{CycleCat::kIssued, 21161},
        {CycleCat::kL1MissWait, 13566},
        {CycleCat::kL2MissWait, 22764},
        {CycleCat::kMemFillWait, 189245},
        {CycleCat::kBusContention, 17407},
        {CycleCat::kBarrierWait, 65018},
        {CycleCat::kIdle, 51317}},
       548,
       544},
      {"kernel=lr_hj "
       "machine=smp:procs=2,rmw=0,barrier_base=0,barrier_per_proc=0,fork=0 "
       "n=1024 layout=ordered",
       30596,
       13514,
       10370,
       {{CycleCat::kIssued, 23218},
        {CycleCat::kL1MissWait, 2058},
        {CycleCat::kL2MissWait, 3192},
        {CycleCat::kMemFillWait, 27880},
        {CycleCat::kBusContention, 732},
        {CycleCat::kBarrierWait, 3687},
        {CycleCat::kIdle, 425}},
       22,
       22},
      {"kernel=cc_sv_smp machine=smp:procs=4,l2_kb=64 n=512 m=4096 "
       "layout=random",
       251768,
       107642,
       72737,
       {{CycleCat::kIssued, 173441},
        {CycleCat::kL1MissWait, 69615},
        {CycleCat::kL2MissWait, 74424},
        {CycleCat::kMemFillWait, 602875},
        {CycleCat::kBusContention, 18606},
        {CycleCat::kBarrierWait, 55861},
        {CycleCat::kIdle, 12250}},
       1305,
       459},
      // GPU edges, captured before op awaiters shrank to one pointer, frames
      // moved to line-aligned slabs and the batch replay began prefetching
      // lane frames: every one of gpu:procs=8's 8,192 lanes live at once,
      // barrier episodes resumed by the kRelease replay, and a warp width
      // that is not a power of two with divergent coloring branches.
      {"kernel=cc_sv_mta machine=gpu:procs=8 n=8192 m=65536 layout=random",
       638904,
       177230,
       1793006,
       {{CycleCat::kIssued, 84359},
        {CycleCat::kIdleNoThread, 1375803},
        {CycleCat::kDivergenceSerial, 92871},
        {CycleCat::kCoalesceWait, 3484199},
        {CycleCat::kBankConflict, 74000}}},
      {"kernel=lr_hj machine=gpu:procs=2 n=1024 layout=random",
       910707,
       8987,
       10370,
       {{CycleCat::kIssued, 8354},
        {CycleCat::kBarrier, 512},
        {CycleCat::kIdleNoThread, 911219},
        {CycleCat::kDivergenceSerial, 633},
        {CycleCat::kCoalesceWait, 899661},
        {CycleCat::kBankConflict, 1035}}},
      {"kernel=color_greedy_mta machine=gpu:procs=2,warp_width=24 n=512 "
       "m=4096 layout=random",
       5348863,
       68590,
       156056,
       {{CycleCat::kIssued, 37618},
        {CycleCat::kIdleNoThread, 3121302},
        {CycleCat::kDivergenceSerial, 30972},
        {CycleCat::kCoalesceWait, 7506954},
        {CycleCat::kBankConflict, 880}}},
  };
  return g;
}

sim::CycleBreakdown expected_breakdown(const Golden& g) {
  sim::CycleBreakdown b;
  for (const auto& [cat, slots] : g.acct) b[cat] = slots;
  return b;
}

TEST(MachineDeterminism, GoldenCyclesSurviveTheHotLoopRestructure) {
  for (const Golden& g : goldens()) {
    const SweepPlan plan = expand_all({g.spec});
    ASSERT_EQ(plan.cells.size(), 1u) << g.spec;
    const CellResult cell = run_cell(plan.cells[0]);
    const ResultRecord r = to_record(cell);
    EXPECT_TRUE(r.verified) << g.spec;
    EXPECT_EQ(r.cycles, g.cycles) << g.spec;
    EXPECT_EQ(r.instructions, g.instructions) << g.spec;
    EXPECT_EQ(r.memory_ops, g.memory_ops) << g.spec;
    EXPECT_EQ(r.breakdown, expected_breakdown(g)) << g.spec;
    EXPECT_EQ(cell.meas.stats.invalidations, g.invalidations) << g.spec;
    EXPECT_EQ(cell.meas.stats.interventions, g.interventions) << g.spec;
  }
}

TEST(MachineDeterminism, ProfilerAttachmentKeepsTheGoldens) {
  // The profiled event loop is a separate instantiation of the hot loop —
  // it must simulate the same machine to the cycle.
  RunOptions profiled;
  profiled.profile = true;
  for (const Golden& g : goldens()) {
    const SweepPlan plan = expand_all({g.spec});
    const CellResult cell = run_cell(plan.cells[0], profiled);
    const ResultRecord r = to_record(cell);
    EXPECT_EQ(r.cycles, g.cycles) << g.spec;
    EXPECT_EQ(r.breakdown, expected_breakdown(g)) << g.spec;
    EXPECT_EQ(cell.meas.stats.invalidations, g.invalidations) << g.spec;
    EXPECT_EQ(cell.meas.stats.interventions, g.interventions) << g.spec;
  }
}

}  // namespace
}  // namespace archgraph::sweep
