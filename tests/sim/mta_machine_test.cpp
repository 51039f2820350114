#include "sim/mta/mta_machine.hpp"

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

TEST(MtaMachine, RunsASingleThreadToCompletion) {
  MtaMachine m;
  SimArray<i64> cell(m.memory(), 1);
  cell.set(0, 41);
  m.spawn(add_one, cell.addr(0));
  m.run_region();
  EXPECT_EQ(cell.get(0), 42);
  EXPECT_GT(m.cycles(), 0);
  EXPECT_EQ(m.stats().instructions, 3);
  EXPECT_EQ(m.stats().loads, 1);
  EXPECT_EQ(m.stats().stores, 1);
}

SimThread fetch_add_n(Ctx ctx, Addr a, i64 times) {
  for (i64 i = 0; i < times; ++i) {
    co_await ctx.fetch_add(a, 1);
  }
}

TEST(MtaMachine, FetchAddIsAtomicUnderContention) {
  MtaMachine m;
  SimArray<i64> counter(m.memory(), 1);
  constexpr i64 kThreads = 200;
  constexpr i64 kEach = 25;
  for (i64 t = 0; t < kThreads; ++t) {
    m.spawn(fetch_add_n, counter.addr(0), kEach);
  }
  m.run_region();
  EXPECT_EQ(counter.get(0), kThreads * kEach);
}

SimThread claim_distinct(Ctx ctx, Addr counter, SimArray<i64> claims) {
  while (true) {
    const i64 ticket = co_await ctx.fetch_add(counter, 1);
    if (ticket >= claims.size()) break;
    co_await ctx.store(claims.addr(ticket), static_cast<i64>(ctx.thread_id()));
  }
}

TEST(MtaMachine, FetchAddTicketsAreDistinct) {
  MtaMachine m;
  SimArray<i64> counter(m.memory(), 1);
  SimArray<i64> claims(m.memory(), 500);
  claims.fill(-1);
  for (i64 t = 0; t < 64; ++t) {
    m.spawn(claim_distinct, counter.addr(0), claims);
  }
  m.run_region();
  // Every slot claimed exactly once (no slot left at -1).
  for (i64 i = 0; i < claims.size(); ++i) {
    EXPECT_GE(claims.get(i), 0) << "slot " << i;
  }
}

TEST(MtaMachine, MoreProcessorsReduceCycles) {
  auto run = [](u32 procs) {
    MtaConfig cfg;
    cfg.processors = procs;
    MtaMachine m(cfg);
    SimArray<i64> data(m.memory(), 4096);
    for (i64 t = 0; t < 512; ++t) {
      m.spawn(fetch_add_n, data.addr(t % data.size()), 20);
    }
    m.run_region();
    return m.cycles();
  };
  const Cycle c1 = run(1);
  const Cycle c4 = run(4);
  const Cycle c8 = run(8);
  EXPECT_LT(c4, c1);
  EXPECT_LT(c8, c4);
  // Near-linear: 4 processors at least 2.5x faster.
  EXPECT_LT(static_cast<double>(c4), static_cast<double>(c1) / 2.5);
}

SimThread long_compute(Ctx ctx, i64 slots) { co_await ctx.compute(slots); }

TEST(MtaMachine, UtilizationHighWithManyThreadsLowWithOne) {
  // One memory-bound thread cannot hide latency: utilization collapses.
  MtaMachine lonely;
  SimArray<i64> cell(lonely.memory(), 1);
  lonely.spawn(fetch_add_n, cell.addr(0), 500);
  lonely.run_region();
  EXPECT_LT(lonely.utilization(), 0.05);

  // Hundreds of threads keep the processor issuing nearly every cycle.
  MtaMachine busy;
  SimArray<i64> data(busy.memory(), 4096);
  for (i64 t = 0; t < 256; ++t) {
    busy.spawn(fetch_add_n, data.addr(t * 16 % data.size()), 200);
  }
  busy.run_region();
  EXPECT_GT(busy.utilization(), 0.85);
}

TEST(MtaMachine, UtilizationNeverExceedsOne) {
  MtaMachine m;
  for (i64 t = 0; t < 300; ++t) {
    m.spawn(long_compute, i64{1000});
  }
  m.run_region();
  EXPECT_LE(m.utilization(), 1.0);
  EXPECT_GT(m.utilization(), 0.5);
}

SimThread producer(Ctx ctx, Addr a, i64 value) {
  co_await ctx.compute(200);  // arrive late on purpose
  co_await ctx.write_ef(a, value);
}

SimThread consumer(Ctx ctx, Addr a, Addr out) {
  const i64 v = co_await ctx.read_fe(a);
  co_await ctx.store(out, v);
}

TEST(MtaMachine, FullEmptyBitsSynchronize) {
  MtaMachine m;
  SimArray<i64> cell(m.memory(), 1);
  SimArray<i64> out(m.memory(), 1);
  m.memory().set_full(cell.addr(0), false);  // start empty
  m.spawn(consumer, cell.addr(0), out.addr(0));
  m.spawn(producer, cell.addr(0), i64{123});
  m.run_region();
  EXPECT_EQ(out.get(0), 123);
  EXPECT_FALSE(m.memory().full(cell.addr(0)));  // readfe consumed it
  EXPECT_GT(m.stats().sync_ops, 0);
}

SimThread pingpong_producer(Ctx ctx, Addr a, i64 rounds) {
  for (i64 i = 0; i < rounds; ++i) {
    co_await ctx.write_ef(a, i);
  }
}

SimThread pingpong_consumer(Ctx ctx, Addr a, Addr sum, i64 rounds) {
  i64 total = 0;
  for (i64 i = 0; i < rounds; ++i) {
    total += co_await ctx.read_fe(a);
  }
  co_await ctx.store(sum, total);
}

TEST(MtaMachine, FullEmptyPingPongTransfersEveryValue) {
  MtaMachine m;
  SimArray<i64> cell(m.memory(), 1);
  SimArray<i64> sum(m.memory(), 1);
  m.memory().set_full(cell.addr(0), false);
  constexpr i64 kRounds = 50;
  m.spawn(pingpong_consumer, cell.addr(0), sum.addr(0), kRounds);
  m.spawn(pingpong_producer, cell.addr(0), kRounds);
  m.run_region();
  EXPECT_EQ(sum.get(0), kRounds * (kRounds - 1) / 2);
}

SimThread deadlocked_reader(Ctx ctx, Addr a) { co_await ctx.read_fe(a); }

TEST(MtaMachine, DeadlockIsDetectedNotHung) {
  MtaMachine m;
  SimArray<i64> cell(m.memory(), 1);
  m.memory().set_full(cell.addr(0), false);  // empty forever
  m.spawn(deadlocked_reader, cell.addr(0));
  EXPECT_THROW(m.run_region(), std::logic_error);
}

SimThread barrier_phase(Ctx ctx, SimArray<i64> flags, i64 self, Addr errors) {
  co_await ctx.store(flags.addr(self), 1);
  co_await ctx.barrier();
  // After the barrier every flag must be set.
  for (i64 i = 0; i < flags.size(); ++i) {
    const i64 f = co_await ctx.load(flags.addr(i));
    if (f != 1) {
      co_await ctx.fetch_add(errors, 1);
    }
  }
}

TEST(MtaMachine, BarrierSeparatesPhases) {
  MtaMachine m;
  constexpr i64 kThreads = 60;
  SimArray<i64> flags(m.memory(), kThreads);
  flags.fill(0);
  SimArray<i64> errors(m.memory(), 1);
  for (i64 t = 0; t < kThreads; ++t) {
    m.spawn(barrier_phase, flags, t, errors.addr(0));
  }
  m.run_region();
  EXPECT_EQ(errors.get(0), 0);
  EXPECT_EQ(m.stats().barriers, 1);
}

SimThread kernel_that_throws(Ctx ctx) {
  co_await ctx.compute(1);
  throw std::runtime_error("inner kernel error");
}

TEST(MtaMachine, KernelExceptionsPropagateFromRunRegion) {
  MtaMachine m;
  m.spawn(kernel_that_throws);
  EXPECT_THROW(m.run_region(), std::runtime_error);
}

TEST(MtaMachine, ThreadsBeyondStreamCapacityStillComplete) {
  MtaConfig cfg;
  cfg.streams_per_processor = 4;  // tiny stream count
  MtaMachine m(cfg);
  SimArray<i64> counter(m.memory(), 1);
  for (i64 t = 0; t < 100; ++t) {
    m.spawn(fetch_add_n, counter.addr(0), 3);
  }
  m.run_region();
  EXPECT_EQ(counter.get(0), 300);
}

TEST(MtaMachine, DeterministicAcrossRuns) {
  auto run = [] {
    MtaMachine m;
    SimArray<i64> data(m.memory(), 512);
    for (i64 t = 0; t < 100; ++t) {
      m.spawn(fetch_add_n, data.addr((t * 37) % 512), 10);
    }
    m.run_region();
    return m.cycles();
  };
  EXPECT_EQ(run(), run());
}

TEST(MtaMachine, CyclesAccumulateAcrossRegions) {
  MtaMachine m;
  SimArray<i64> cell(m.memory(), 1);
  m.spawn(add_one, cell.addr(0));
  m.run_region();
  const Cycle after_first = m.cycles();
  m.spawn(add_one, cell.addr(0));
  m.run_region();
  EXPECT_GT(m.cycles(), after_first);
  EXPECT_EQ(m.stats().regions, 2);
  EXPECT_EQ(cell.get(0), 2);
}

TEST(MtaMachine, NonFlatMemoryPenaltyIsAbsorbedByParallelism) {
  // The §6 next-gen question: remote banks cost +200 cycles round trip.
  // With one thread per processor the penalty lands nearly in full; with
  // enough threads AND enough streams to cover the larger latency, it is
  // hidden. (Hiding budget = streams * g / (g + L) — the paper's own
  // utilization arithmetic.)
  auto run = [](Cycle extra, i64 threads, u32 streams) {
    MtaConfig cfg;
    cfg.processors = 4;
    cfg.nonuniform_extra = extra;
    cfg.streams_per_processor = streams;
    MtaMachine m(cfg);
    SimArray<i64> data(m.memory(), 8192);
    for (i64 t = 0; t < threads; ++t) {
      m.spawn(fetch_add_n, data.addr((t * 61) % data.size()), 50);
    }
    m.run_region();
    return m.cycles();
  };
  // Flat memory is the default and never slower.
  EXPECT_LE(run(0, 16, 128), run(200, 16, 128));
  // Few threads: penalty in (nearly) full — ~75% of accesses remote at p=4.
  const double few_ratio = static_cast<double>(run(200, 4, 128)) /
                           static_cast<double>(run(0, 4, 128));
  EXPECT_GT(few_ratio, 1.8);
  // Ample threads and streams: mostly hidden.
  const double many_ratio = static_cast<double>(run(200, 2048, 512)) /
                            static_cast<double>(run(0, 2048, 512));
  EXPECT_LT(many_ratio, 1.4);
  EXPECT_LT(many_ratio, few_ratio);
}

TEST(MtaMachine, HotspotSerializesSharedCell) {
  // All threads hammer ONE word vs. spreading over many words: the single
  // bank serializes the former (the paper's hotspot remark). A single
  // processor is itself limited to one issue per cycle, so the effect only
  // shows with several processors.
  auto run = [](bool hotspot) {
    MtaConfig cfg;
    cfg.processors = 8;
    MtaMachine m(cfg);
    SimArray<i64> data(m.memory(), 65536);
    for (i64 t = 0; t < 1024; ++t) {
      m.spawn(fetch_add_n, data.addr(hotspot ? 0 : (t * 64)), 64);
    }
    m.run_region();
    return m.cycles();
  };
  EXPECT_GT(run(true), 2 * run(false));
}

// --- Exact-cycle pins for the scheduler's ordering-sensitive paths ---------
//
// No registry kernel issues full/empty operations, so the sweep goldens never
// exercise retry arbitration; these scenarios do. Each pins the exact cycle
// count, instruction count, retry count and every non-zero accounting slot,
// captured from the simulator before its event loop was reworked. A failure
// means simulated behavior drifted: fix the scheduler, never re-bake these.

struct ExactPin {
  Cycle cycles;
  i64 instructions;
  i64 sync_retries;
  // (category, slots) for every non-zero bucket; all others must be zero.
  std::vector<std::pair<CycleCat, Cycle>> acct;
};

/// A hook that observes nothing: attaching it selects the profiled event
/// loop, which must simulate the same machine to the cycle.
class NullProfHook final : public ProfHook {
 public:
  void on_prof_region_begin(const Machine&) override {}
  void on_advance(const Machine&, Cycle) override {}
  void on_access(Addr, AccessClass, bool) override {}
  void on_prof_region_end(const Machine&) override {}
};

/// Runs `scenario` (which builds and runs a machine with the given hook
/// attached and returns its stats) plain and profiled, and checks both
/// against `pin`.
template <typename Scenario>
void expect_exact(const ExactPin& pin, Scenario scenario) {
  NullProfHook hook;
  for (ProfHook* h : {static_cast<ProfHook*>(nullptr),
                      static_cast<ProfHook*>(&hook)}) {
    const MachineStats s = scenario(h);
    const char* mode = h == nullptr ? "plain" : "profiled";
    EXPECT_EQ(s.cycles, pin.cycles) << mode;
    EXPECT_EQ(s.instructions, pin.instructions) << mode;
    EXPECT_EQ(s.sync_retries, pin.sync_retries) << mode;
    CycleBreakdown want;
    for (const auto& [cat, slots] : pin.acct) want[cat] = slots;
    for (usize c = 0; c < kCycleCatCount; ++c) {
      EXPECT_EQ(s.breakdown.slots[c], want.slots[c])
          << mode << " category " << c;
    }
  }
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

SimThread flag_setter(Ctx ctx, Addr flag, i64 delay) {
  co_await ctx.compute(delay);
  co_await ctx.write_ef(flag, 1000);
}

TEST(MtaMachineExact, FullEmptyRetriesWithManyWaitersPerWord) {
  // Two words, each with several read_fe consumers and two write_ef
  // producers, plus a read_ff fan-out: eight watchers parked on one flag
  // that a late writer fills, so one tag flip wakes a crowd whose retries
  // re-arbitrate for one bank in the same cycle.
  constexpr i64 kWatchers = 8;
  const ExactPin pin{1242, 329, 41,
                     {{CycleCat::kIssued, 329},
                      {CycleCat::kNoReadyStream, 1267},
                      {CycleCat::kSyncBlocked, 270},
                      {CycleCat::kIdleNoThread, 618}}};
  expect_exact(pin, [&](ProfHook* hook) {
    MtaConfig cfg;
    cfg.processors = 2;
    MtaMachine m(cfg);
    m.set_prof_hook(hook);
    SimArray<i64> words(m.memory(), 2);
    SimArray<i64> flag(m.memory(), 1);
    SimArray<i64> out(m.memory(), 32);
    m.memory().set_full(words.addr(0), false);
    m.memory().set_full(words.addr(1), false);
    m.memory().set_full(flag.addr(0), false);
    // Even thread ids land on processor 0, odd ones on processor 1: the
    // producers and the flag setter share processor 0 with idle fillers, so
    // processor 1 holds only consumers and watchers and its parked stretches
    // are charged as sync-blocked.
    for (i64 i = 0; i < 15; ++i) {
      if (i < 2) {  // word 0: 12 values from two producers
        m.spawn(sync_producer, words.addr(0), 100 * i, i64{6},
                i == 0 ? i64{40} : i64{7});
      } else if (i < 4) {  // word 1: 6 values from two producers
        m.spawn(sync_producer, words.addr(1), 100 * i, i64{3},
                i == 2 ? i64{0} : i64{25});
      } else if (i == 4) {
        m.spawn(flag_setter, flag.addr(0), i64{150});
      } else {
        m.spawn(long_compute, i64{1});
      }
      if (i < 4) {  // 4 consumers x 3 takes on word 0
        m.spawn(sync_consumer, words.addr(0), out.addr(i), i64{3});
      } else if (i < 7) {  // 3 consumers x 2 takes on word 1
        m.spawn(sync_consumer, words.addr(1), out.addr(i), i64{2});
      } else {  // kWatchers read_ff readers of the flag
        m.spawn(sync_watcher, flag.addr(0), out.addr(i + 1));
      }
    }
    m.run_region();
    // Every produced value was consumed exactly once.
    i64 sum = 0;
    for (i64 c = 0; c < 7; ++c) sum += out.get(c);
    EXPECT_EQ(sum, (0 + 1 + 2 + 3 + 4 + 5) + (100 + 101 + 102 + 103 + 104 +
                                              105) +
                       (200 + 201 + 202) + (300 + 301 + 302));
    for (i64 w = 0; w < kWatchers; ++w) {
      EXPECT_EQ(out.get(8 + w), 1000 + 15 + 2 * w);  // value + thread id
    }
    EXPECT_TRUE(m.memory().full(flag.addr(0)));  // read_ff leaves it full
    return m.stats();
  });
}

TEST(MtaMachineExact, FetchAddHotspotConvoyOutrunsTheBucketWindow) {
  // 1024 streams hammering one word on 8 processors: the bank retires one
  // fetch-add per cycle, so each round trip waits behind ~1000 others and
  // completions land far beyond the event queue's 512-cycle bucket window.
  const ExactPin pin{4453, 4096, 0,
                     {{CycleCat::kIssued, 4096},
                      {CycleCat::kNoReadyStream, 29452},
                      {CycleCat::kIdleNoThread, 2076}}};
  expect_exact(pin, [](ProfHook* hook) {
    MtaConfig cfg;
    cfg.processors = 8;
    MtaMachine m(cfg);
    m.set_prof_hook(hook);
    SimArray<i64> counter(m.memory(), 1);
    for (i64 t = 0; t < 1024; ++t) {
      m.spawn(fetch_add_n, counter.addr(0), i64{4});
    }
    m.run_region();
    EXPECT_EQ(counter.get(0), 1024 * 4);
    return m.stats();
  });
}

SimThread barrier_or_leave(Ctx ctx, SimArray<i64> data, i64 leave_after) {
  const i64 self = static_cast<i64>(ctx.thread_id());
  co_await ctx.store(data.addr(self), self);
  if (self >= data.size() / 2) {
    // Early leaver: admitted only as earlier leavers finish, and done only
    // after a long compute, so the last live thread finishes well after the
    // barrier's final arrival and the release lands behind the current time.
    co_await ctx.compute(leave_after);
    co_return;
  }
  co_await ctx.barrier();
  const i64 v = co_await ctx.load(data.addr((self + 1) % data.size()));
  co_await ctx.store(data.addr(self), v + 1);
}

TEST(MtaMachineExact, AdmissionAndZeroOverheadBarrierWithEarlyLeavers) {
  // 16 threads on 2 processors x 5 streams: each processor admits its four
  // barrier threads plus one leaver and queues three more leavers, which a
  // stream takes over as each leaver finishes. No fork ramp, and a barrier
  // with zero overhead.
  const ExactPin pin{1819, 2440, 0,
                     {{CycleCat::kIssued, 2440},
                      {CycleCat::kNoReadyStream, 1198}}};
  expect_exact(pin, [](ProfHook* hook) {
    MtaConfig cfg;
    cfg.processors = 2;
    cfg.streams_per_processor = 5;
    cfg.region_fork_cycles = 0;
    cfg.barrier_overhead = 0;
    MtaMachine m(cfg);
    m.set_prof_hook(hook);
    SimArray<i64> data(m.memory(), 16);
    for (i64 t = 0; t < 16; ++t) {
      m.spawn(barrier_or_leave, data, i64{300});
    }
    m.run_region();
    EXPECT_EQ(m.stats().barriers, 1);
    for (i64 t = 0; t < 8; ++t) {
      EXPECT_EQ(data.get(t), t + 2) << t;  // read its neighbour's id, + 1
    }
    return m.stats();
  });
}

}  // namespace
}  // namespace archgraph::sim
