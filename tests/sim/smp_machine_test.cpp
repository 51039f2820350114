#include "sim/smp/smp_machine.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/memory.hpp"
#include "sim/stats.hpp"

namespace archgraph::sim {
namespace {

SimThread add_one(Ctx ctx, Addr a) {
  const i64 v = co_await ctx.load(a);
  co_await ctx.compute(1);
  co_await ctx.store(a, v + 1);
}

TEST(SmpMachine, RunsAndComputes) {
  SmpMachine m;
  SimArray<i64> cell(m.memory(), 1);
  cell.set(0, 9);
  m.spawn(add_one, cell.addr(0));
  m.run_region();
  EXPECT_EQ(cell.get(0), 10);
  EXPECT_GT(m.cycles(), 0);
}

SimThread scan_array(Ctx ctx, SimArray<i64> data, Addr out) {
  i64 sum = 0;
  for (i64 i = 0; i < data.size(); ++i) {
    sum += co_await ctx.load(data.addr(i));
    co_await ctx.compute(1);
  }
  co_await ctx.store(out, sum);
}

SimThread stride_array(Ctx ctx, SimArray<i64> data, i64 stride, Addr out) {
  // Touch the same number of elements as a full scan of size/stride.
  i64 sum = 0;
  const i64 count = data.size() / stride;
  for (i64 k = 0; k < count; ++k) {
    sum += co_await ctx.load(data.addr((k * stride) % data.size()));
    co_await ctx.compute(1);
  }
  co_await ctx.store(out, sum);
}

TEST(SmpMachine, SequentialScanBeatsStridedScanPerElement) {
  // Sequential access amortizes each line fill over 8 words; a stride that
  // skips whole lines misses every time. Same element count each way.
  SmpMachine seq_m;
  SimArray<i64> seq_data(seq_m.memory(), 8192);
  SimArray<i64> seq_out(seq_m.memory(), 1);
  seq_m.spawn(scan_array, seq_data, seq_out.addr(0));
  seq_m.run_region();
  const double seq_per_elem = static_cast<double>(seq_m.cycles()) / 8192;

  SmpMachine str_m;
  SimArray<i64> str_data(str_m.memory(), 65536);
  SimArray<i64> str_out(str_m.memory(), 1);
  str_m.spawn(stride_array, str_data, i64{8}, str_out.addr(0));
  str_m.run_region();
  const double str_per_elem = static_cast<double>(str_m.cycles()) / 8192;

  EXPECT_GT(str_per_elem, 3.0 * seq_per_elem);
}

TEST(SmpMachine, RepeatedScanHitsInCache) {
  // Second scan of an L1/L2-resident array must be much faster.
  SmpMachine m;
  SimArray<i64> data(m.memory(), 1024);
  SimArray<i64> out(m.memory(), 1);
  m.spawn(scan_array, data, out.addr(0));
  m.run_region();
  const Cycle cold = m.cycles();
  m.spawn(scan_array, data, out.addr(0));
  m.run_region();
  const Cycle warm = m.cycles() - cold;
  EXPECT_LT(warm * 3, cold);
  EXPECT_GT(m.stats().l1_hits, 0);
}

SimThread fetch_add_n(Ctx ctx, Addr a, i64 times) {
  for (i64 i = 0; i < times; ++i) {
    co_await ctx.fetch_add(a, 1);
  }
}

TEST(SmpMachine, FetchAddIsAtomicAcrossProcessors) {
  SmpConfig cfg;
  cfg.processors = 4;
  SmpMachine m(cfg);
  SimArray<i64> counter(m.memory(), 1);
  for (i64 t = 0; t < 4; ++t) {
    m.spawn(fetch_add_n, counter.addr(0), 100);
  }
  m.run_region();
  EXPECT_EQ(counter.get(0), 400);
}

SimThread writer_kernel(Ctx ctx, SimArray<i64> data, i64 lo, i64 hi) {
  for (i64 i = lo; i < hi; ++i) {
    co_await ctx.store(data.addr(i), i);
    co_await ctx.compute(1);
  }
}

TEST(SmpMachine, FalseSharingCausesInvalidations) {
  // Two processors interleave writes within the same lines -> invalidation
  // traffic; disjoint line-aligned halves -> none (after warmup).
  auto invalidations = [](bool interleaved) {
    SmpConfig cfg;
    cfg.processors = 2;
    SmpMachine m(cfg);
    SimArray<i64> data(m.memory(), 4096);
    if (interleaved) {
      // Both threads write the full range (same lines, ping-pong).
      m.spawn(writer_kernel, data, i64{0}, i64{2048});
      m.spawn(writer_kernel, data, i64{0}, i64{2048});
    } else {
      m.spawn(writer_kernel, data, i64{0}, i64{2048});
      m.spawn(writer_kernel, data, i64{2048}, i64{4096});
    }
    m.run_region();
    return m.stats().invalidations;
  };
  EXPECT_GT(invalidations(true), 10 * (invalidations(false) + 1));
}

SimThread barrier_then_read(Ctx ctx, SimArray<i64> flags, i64 self,
                            Addr errors) {
  co_await ctx.store(flags.addr(self), 1);
  co_await ctx.barrier();
  for (i64 i = 0; i < flags.size(); ++i) {
    const i64 f = co_await ctx.load(flags.addr(i));
    if (f != 1) {
      co_await ctx.fetch_add(errors, 1);
    }
  }
}

TEST(SmpMachine, BarrierSeparatesPhases) {
  SmpConfig cfg;
  cfg.processors = 4;
  SmpMachine m(cfg);
  SimArray<i64> flags(m.memory(), 4);
  flags.fill(0);
  SimArray<i64> errors(m.memory(), 1);
  for (i64 t = 0; t < 4; ++t) {
    m.spawn(barrier_then_read, flags, t, errors.addr(0));
  }
  m.run_region();
  EXPECT_EQ(errors.get(0), 0);
  EXPECT_EQ(m.stats().barriers, 1);
}

TEST(SmpMachine, BarrierCostGrowsWithProcessors) {
  auto barrier_cycles = [](u32 procs) {
    SmpConfig cfg;
    cfg.processors = procs;
    SmpMachine m(cfg);
    SimArray<i64> flags(m.memory(), procs);
    SimArray<i64> errors(m.memory(), 1);
    for (u32 t = 0; t < procs; ++t) {
      m.spawn(barrier_then_read, flags, static_cast<i64>(t), errors.addr(0));
    }
    m.run_region();
    return m.cycles();
  };
  EXPECT_GT(barrier_cycles(8), barrier_cycles(2));
}

SimThread producer(Ctx ctx, Addr a, i64 value) {
  co_await ctx.compute(500);
  co_await ctx.write_ef(a, value);
}

SimThread consumer(Ctx ctx, Addr a, Addr out) {
  const i64 v = co_await ctx.read_fe(a);
  co_await ctx.store(out, v);
}

TEST(SmpMachine, EmulatedFullEmptyWorksButCostsBusTraffic) {
  SmpConfig cfg;
  cfg.processors = 2;
  SmpMachine m(cfg);
  SimArray<i64> cell(m.memory(), 1);
  SimArray<i64> out(m.memory(), 1);
  m.memory().set_full(cell.addr(0), false);
  m.spawn(consumer, cell.addr(0), out.addr(0));
  m.spawn(producer, cell.addr(0), i64{55});
  m.run_region();
  EXPECT_EQ(out.get(0), 55);
  EXPECT_GT(m.stats().sync_ops, 0);
}

TEST(SmpMachine, OversubscriptionContextSwitches) {
  SmpMachine m;  // 1 processor
  SimArray<i64> counter(m.memory(), 1);
  for (i64 t = 0; t < 4; ++t) {
    m.spawn(fetch_add_n, counter.addr(0), 50);
  }
  m.run_region();
  EXPECT_EQ(counter.get(0), 200);
  EXPECT_GT(m.stats().context_switches, 0);
}

TEST(SmpMachine, DeadlockIsDetected) {
  SmpMachine m;
  SimArray<i64> cell(m.memory(), 1);
  m.memory().set_full(cell.addr(0), false);
  m.spawn(consumer, cell.addr(0), cell.addr(0));
  EXPECT_THROW(m.run_region(), std::logic_error);
}

TEST(SmpMachine, DeterministicAcrossRuns) {
  auto run = [] {
    SmpConfig cfg;
    cfg.processors = 4;
    SmpMachine m(cfg);
    SimArray<i64> data(m.memory(), 2048);
    for (i64 t = 0; t < 4; ++t) {
      m.spawn(writer_kernel, data, t * 512, (t + 1) * 512);
    }
    m.run_region();
    return m.cycles();
  };
  EXPECT_EQ(run(), run());
}

TEST(SmpMachine, RejectsTooManyProcessors) {
  SmpConfig cfg;
  cfg.processors = 33;
  EXPECT_THROW(SmpMachine{cfg}, std::logic_error);
}

// --- Exact-cycle pins for paths no registry kernel reaches ------------------
//
// Registry cells never preempt a thread, retry a full/empty probe, fetch-add
// a line other processors cache, or touch memory allocated after the
// machine's first region. These scenarios do. Each pins the exact cycle
// count, the coherence and scheduler counters and every non-zero accounting
// slot, captured before the SMP event loop, directory and cache sets were
// reworked for host speed. A failure means simulated behavior drifted: fix
// the model, never re-bake these.

struct SmpPin {
  Cycle cycles;
  i64 instructions;
  i64 sync_retries;
  i64 context_switches;
  i64 invalidations;
  i64 interventions;
  i64 writebacks;
  Cycle bus_busy;
  i64 advances;  // ProfHook::on_advance calls: one per handled event
  // (category, slots) for every non-zero bucket; all others must be zero.
  std::vector<std::pair<CycleCat, Cycle>> acct;
};

/// A hook that only counts scheduler events: attaching it selects the
/// profiled event loop, which must simulate the same machine to the cycle
/// and announce every handled event, inlined or popped.
class CountingProfHook final : public ProfHook {
 public:
  void on_prof_region_begin(const Machine&) override {}
  void on_advance(const Machine&, Cycle) override { ++advances; }
  void on_access(Addr, AccessClass, bool) override {}
  void on_prof_region_end(const Machine&) override {}
  i64 advances = 0;
};

/// Runs `scenario` (which builds and runs a machine with the given hook
/// attached and returns its stats) plain and profiled, and checks both
/// against `pin`.
template <typename Scenario>
void expect_exact(const SmpPin& pin, Scenario scenario) {
  CountingProfHook hook;
  for (ProfHook* h : {static_cast<ProfHook*>(nullptr),
                      static_cast<ProfHook*>(&hook)}) {
    const MachineStats s = scenario(h);
    const char* mode = h == nullptr ? "plain" : "profiled";
    if (h != nullptr) {
      EXPECT_EQ(hook.advances, pin.advances);
    }
    EXPECT_EQ(s.cycles, pin.cycles) << mode;
    EXPECT_EQ(s.instructions, pin.instructions) << mode;
    EXPECT_EQ(s.sync_retries, pin.sync_retries) << mode;
    EXPECT_EQ(s.context_switches, pin.context_switches) << mode;
    EXPECT_EQ(s.invalidations, pin.invalidations) << mode;
    EXPECT_EQ(s.interventions, pin.interventions) << mode;
    EXPECT_EQ(s.writebacks, pin.writebacks) << mode;
    EXPECT_EQ(s.bus_busy, pin.bus_busy) << mode;
    CycleBreakdown want;
    for (const auto& [cat, slots] : pin.acct) want[cat] = slots;
    for (usize c = 0; c < kCycleCatCount; ++c) {
      EXPECT_EQ(s.breakdown.slots[c], want.slots[c])
          << mode << " category " << c;
    }
  }
}

SimThread churn(Ctx ctx, SimArray<i64> data, i64 rounds) {
  const i64 self = static_cast<i64>(ctx.thread_id());
  for (i64 r = 0; r < rounds; ++r) {
    if (r == rounds / 2) {
      co_await ctx.barrier();
    }
    const i64 i = (self * 37 + r * 11) % data.size();
    const i64 v = co_await ctx.load(data.addr(i));
    co_await ctx.compute(20 + 7 * (self % 3));
    co_await ctx.store(data.addr((i + 8 * self) % data.size()), v + 1);
  }
}

TEST(SmpMachineExact, QuantumPreemptionSwitchesContexts) {
  // Seven threads on two processors with a 400-cycle quantum: each
  // processor round-robins its share, preempting on every expired quantum,
  // and a barrier halfway parks whole processors while others still run.
  const SmpPin pin{105870, 4711, 0, 49, 96, 76, 0, 2076, 518,
                   {{CycleCat::kIssued, 4881},
                    {CycleCat::kL2MissWait, 1428},
                    {CycleCat::kMemFillWait, 12050},
                    {CycleCat::kBusContention, 8318},
                    {CycleCat::kBarrierWait, 31957},
                    {CycleCat::kIdle, 153106}}};
  expect_exact(pin, [](ProfHook* hook) {
    SmpConfig cfg;
    cfg.processors = 2;
    cfg.quantum = 400;
    SmpMachine m(cfg);
    m.set_prof_hook(hook);
    SimArray<i64> data(m.memory(), 512);
    for (i64 t = 0; t < 7; ++t) {
      m.spawn(churn, data, i64{24});
    }
    m.run_region();
    EXPECT_EQ(m.stats().barriers, 1);
    EXPECT_GT(m.stats().context_switches, 7);
    return m.stats();
  });
}

SimThread sync_consumer(Ctx ctx, Addr word, Addr out, i64 takes) {
  i64 total = 0;
  for (i64 i = 0; i < takes; ++i) {
    total += co_await ctx.read_fe(word);
    co_await ctx.compute(1 + static_cast<i64>(ctx.thread_id() % 3));
  }
  co_await ctx.store(out, total);
}

SimThread sync_producer(Ctx ctx, Addr word, i64 first, i64 count,
                        i64 delay) {
  co_await ctx.compute(delay);
  for (i64 i = 0; i < count; ++i) {
    co_await ctx.write_ef(word, first + i);
  }
}

SimThread sync_watcher(Ctx ctx, Addr flag, Addr out) {
  const i64 v = co_await ctx.read_ff(flag);
  co_await ctx.store(out, v + static_cast<i64>(ctx.thread_id()));
}

TEST(SmpMachineExact, FullEmptyCrowdRetriesOnEmulatedTags) {
  // Three processors, 15 threads: several read_fe consumers on each of two
  // words, two staggered write_ef producers on word 0 and one on word 1,
  // plus four read_ff watchers on a flag a late producer fills. Every
  // satisfying probe wakes all threads parked on its word; those that lose
  // the re-probe park again.
  const SmpPin pin{90275, 3373, 47, 58, 7, 7, 0, 1164, 168,
                   {{CycleCat::kIssued, 3375},
                    {CycleCat::kMemFillWait, 45},
                    {CycleCat::kBusContention, 45177},
                    {CycleCat::kRmwSpin, 11000},
                    {CycleCat::kIdle, 211228}}};
  expect_exact(pin, [](ProfHook* hook) {
    SmpConfig cfg;
    cfg.processors = 3;
    SmpMachine m(cfg);
    m.set_prof_hook(hook);
    SimArray<i64> words(m.memory(), 2);
    SimArray<i64> flag(m.memory(), 1);
    SimArray<i64> out(m.memory(), 16);
    m.memory().set_full(words.addr(0), false);
    m.memory().set_full(words.addr(1), false);
    m.memory().set_full(flag.addr(0), false);
    for (i64 c = 0; c < 4; ++c) {  // 4 consumers x 3 takes on word 0
      m.spawn(sync_consumer, words.addr(0), out.addr(c), i64{3});
    }
    for (i64 c = 4; c < 7; ++c) {  // 3 consumers x 2 takes on word 1
      m.spawn(sync_consumer, words.addr(1), out.addr(c), i64{2});
    }
    m.spawn(sync_producer, words.addr(0), i64{0}, i64{6}, i64{700});
    m.spawn(sync_producer, words.addr(0), i64{100}, i64{6}, i64{40});
    m.spawn(sync_producer, words.addr(1), i64{200}, i64{6}, i64{0});
    m.spawn(sync_producer, flag.addr(0), i64{1000}, i64{1}, i64{2500});
    for (i64 w = 0; w < 4; ++w) {
      m.spawn(sync_watcher, flag.addr(0), out.addr(8 + w));
    }
    m.run_region();
    // Every produced value was consumed exactly once.
    i64 sum = 0;
    for (i64 c = 0; c < 7; ++c) sum += out.get(c);
    EXPECT_EQ(sum, (0 + 1 + 2 + 3 + 4 + 5) + (100 + 101 + 102 + 103 + 104 +
                                              105) +
                       (200 + 201 + 202 + 203 + 204 + 205));
    for (i64 w = 0; w < 4; ++w) {
      EXPECT_EQ(out.get(8 + w), 1000 + 11 + w);  // value + thread id
    }
    EXPECT_GT(m.stats().sync_retries, 0);
    return m.stats();
  });
}

SimThread share_then_add(Ctx ctx, SimArray<i64> data, i64 rounds) {
  const i64 self = static_cast<i64>(ctx.thread_id());
  for (i64 r = 0; r < rounds; ++r) {
    // Every thread reads the same 16 words (two lines), so each line is
    // cached by every processor before anyone modifies it.
    i64 v = 0;
    for (i64 i = 0; i < 16; ++i) {
      v += co_await ctx.load(data.addr((16 * r + i) % data.size()));
    }
    co_await ctx.fetch_add(data.addr((16 * r + self) % data.size()), 1);
    co_await ctx.compute(3 + self);
    co_await ctx.store(data.addr((16 * r + 8 + self % 8) % data.size()), v);
  }
}

void expect_shared_fetch_add(u32 procs, const SmpPin& pin) {
  expect_exact(pin, [procs](ProfHook* hook) {
    SmpConfig cfg;
    cfg.processors = procs;
    SmpMachine m(cfg);
    m.set_prof_hook(hook);
    SimArray<i64> data(m.memory(), 256);
    for (u32 t = 0; t < procs; ++t) {
      m.spawn(share_then_add, data, i64{20});
    }
    m.run_region();
    EXPECT_GT(m.stats().invalidations, 0);
    return m.stats();
  });
}

TEST(SmpMachineExact, FetchAddOnLinesOtherProcessorsCache) {
  // Every thread caches the same two lines, then fetch-adds into the first
  // (a locked RMW that drops every cached copy and forgets the line's
  // sharers) and stores into the second (invalidating the other readers).
  const SmpPin three{14044, 1320, 0, 0, 78, 40, 0, 2568, 1140,
                     {{CycleCat::kIssued, 2186},
                      {CycleCat::kL2MissWait, 2478},
                      {CycleCat::kMemFillWait, 20240},
                      {CycleCat::kBusContention, 1839},
                      {CycleCat::kRmwSpin, 5340},
                      {CycleCat::kIdle, 10049}}};
  const SmpPin eight{17585, 3920, 0, 0, 235, 144, 0, 7260, 3040,
                     {{CycleCat::kIssued, 6195},
                      {CycleCat::kL2MissWait, 8106},
                      {CycleCat::kMemFillWait, 65915},
                      {CycleCat::kBusContention, 7444},
                      {CycleCat::kRmwSpin, 14240},
                      {CycleCat::kIdle, 38780}}};
  expect_shared_fetch_add(3, three);
  expect_shared_fetch_add(8, eight);
}

SimThread interleaved_writer(Ctx ctx, SimArray<i64> data, i64 stride) {
  const i64 self = static_cast<i64>(ctx.thread_id()) % stride;
  for (i64 i = self; i < data.size(); i += stride) {
    const i64 v = co_await ctx.load(data.addr(i));
    co_await ctx.store(data.addr(i), v + i);
  }
}

void expect_region_after_alloc(u32 procs, const SmpPin& pin) {
  expect_exact(pin, [procs](ProfHook* hook) {
    SmpConfig cfg;
    cfg.processors = procs;
    // Caches smaller than the two arrays, so dirty lines are written back.
    cfg.l1_bytes = 2 * 1024;
    cfg.l2_bytes = 8 * 1024;
    SmpMachine m(cfg);
    m.set_prof_hook(hook);
    SimArray<i64> first(m.memory(), 1024);
    for (u32 t = 0; t < procs; ++t) {
      m.spawn(interleaved_writer, first, static_cast<i64>(procs));
    }
    m.run_region();
    // Memory allocated after the first region: the second region's writes
    // share its lines between processors word by word.
    SimArray<i64> second(m.memory(), 2048);
    for (u32 t = 0; t < procs; ++t) {
      m.spawn(interleaved_writer, second, static_cast<i64>(procs));
    }
    for (u32 t = 0; t < procs; ++t) {
      m.spawn(interleaved_writer, first, static_cast<i64>(procs));
    }
    m.run_region();
    for (i64 i = 0; i < second.size(); ++i) {
      EXPECT_EQ(second.get(i), i) << i;
    }
    return m.stats();
  });
}

TEST(SmpMachineExact, WritesToMemoryAllocatedBetweenRegions) {
  // The second region writes memory that did not exist during the first,
  // so the coherence directory must grow to cover it, while the first
  // array's lines keep the sharers the first region recorded.
  const SmpPin two{136348, 8192, 0, 4, 734, 516, 382, 18648, 8192,
                   {{CycleCat::kIssued, 15211},
                    {CycleCat::kL1MissWait, 21},
                    {CycleCat::kL2MissWait, 21609},
                    {CycleCat::kMemFillWait, 175645},
                    {CycleCat::kBusContention, 23824},
                    {CycleCat::kIdle, 36386}}};
  const SmpPin eight{130194, 8192, 0, 16, 7034, 3584, 193, 91716, 8192,
                     {{CycleCat::kIssued, 8838},
                      {CycleCat::kL1MissWait, 2016},
                      {CycleCat::kL2MissWait, 84021},
                      {CycleCat::kMemFillWait, 697415},
                      {CycleCat::kBusContention, 131531},
                      {CycleCat::kIdle, 117731}}};
  expect_region_after_alloc(2, two);
  expect_region_after_alloc(8, eight);
}

}  // namespace
}  // namespace archgraph::sim
