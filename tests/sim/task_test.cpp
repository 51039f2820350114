// Tests of the coroutine plumbing itself, driven by a hand-rolled
// mini-scheduler (no machine model): advance() must surface each operation in
// program order with the right payloads, and results must flow back in. The
// frame pool the coroutines allocate from is tested here too.
#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/memory.hpp"

namespace archgraph::sim {
namespace {

SimThread three_ops(Ctx ctx, Addr a) {
  const i64 v = co_await ctx.load(a);
  co_await ctx.compute(5);
  co_await ctx.store(a, v + 1);
}

TEST(SimTask, OperationsSurfaceInProgramOrder) {
  ThreadState ts;
  Ctx ctx{&ts};
  SimThread t = three_ops(ctx, 17);
  ts.handle = t.bind(&ts);

  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kLoad);
  EXPECT_EQ(ts.pending.addr, 17u);
  ts.pending.result = 41;  // scheduler supplies the loaded value

  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kCompute);
  EXPECT_EQ(ts.pending.value, 5);

  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kStore);
  EXPECT_EQ(ts.pending.addr, 17u);
  EXPECT_EQ(ts.pending.value, 42);  // used the load result

  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kDone);
  ts.handle.destroy();
}

SimThread all_op_kinds(Ctx ctx) {
  co_await ctx.load(1);
  co_await ctx.store(2, 20);
  co_await ctx.read_ff(3);
  co_await ctx.read_fe(4);
  co_await ctx.write_ef(5, 50);
  co_await ctx.fetch_add(6, 60);
  co_await ctx.compute(7);
  co_await ctx.barrier();
}

TEST(SimTask, AllOperationKindsCarryPayloads) {
  ThreadState ts;
  Ctx ctx{&ts};
  SimThread t = all_op_kinds(ctx);
  ts.handle = t.bind(&ts);

  const std::vector<std::pair<OpKind, Addr>> expected{
      {OpKind::kLoad, 1},    {OpKind::kStore, 2},   {OpKind::kReadFF, 3},
      {OpKind::kReadFE, 4},  {OpKind::kWriteEF, 5}, {OpKind::kFetchAdd, 6},
      {OpKind::kCompute, 0}, {OpKind::kBarrier, 0}};
  for (const auto& [kind, addr] : expected) {
    ts.advance();
    EXPECT_EQ(ts.pending.kind, kind);
    if (addr != 0) {
      EXPECT_EQ(ts.pending.addr, addr);
    }
  }
  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kDone);
  ts.handle.destroy();
}

SimThread empty_kernel(Ctx) { co_return; }

TEST(SimTask, EmptyKernelFinishesImmediately) {
  ThreadState ts;
  Ctx ctx{&ts};
  SimThread t = empty_kernel(ctx);
  ts.handle = t.bind(&ts);
  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kDone);
  ts.handle.destroy();
}

SimThread throwing_kernel(Ctx ctx) {
  co_await ctx.compute(1);
  throw std::runtime_error("kernel failure");
}

TEST(SimTask, ExceptionIsCapturedNotPropagated) {
  ThreadState ts;
  Ctx ctx{&ts};
  SimThread t = throwing_kernel(ctx);
  ts.handle = t.bind(&ts);
  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kCompute);
  ts.advance();  // must not throw here; error is stored
  EXPECT_EQ(ts.pending.kind, OpKind::kDone);
  ASSERT_TRUE(ts.error != nullptr);
  EXPECT_THROW(std::rethrow_exception(ts.error), std::runtime_error);
  ts.handle.destroy();
}

TEST(SimTask, UnadoptedThreadCleansUpItsFrame) {
  ThreadState ts;
  Ctx ctx{&ts};
  {
    SimThread t = three_ops(ctx, 0);
    // destroyed without bind(): no leak (verified under ASan in CI; here we
    // just check it does not crash).
  }
  SUCCEED();
}

TEST(SimTask, ThreadIdIsVisibleToKernels) {
  ThreadState ts;
  ts.id = 37;
  Ctx ctx{&ts};
  EXPECT_EQ(ctx.thread_id(), 37u);
}

// Every co_await site keeps its awaiter in the coroutine frame, so the
// awaiter's size multiplies into every kernel frame.
static_assert(sizeof(OpAwaiter) == sizeof(ThreadState*));

TEST(SimTask, CtxOpIsPendingAsSoonAsTheCallReturns) {
  ThreadState ts;
  Ctx ctx{&ts};
  const OpAwaiter fa = ctx.fetch_add(9, 3);
  EXPECT_EQ(fa.ts, &ts);
  EXPECT_EQ(ts.pending.kind, OpKind::kFetchAdd);
  EXPECT_EQ(ts.pending.addr, 9u);
  EXPECT_EQ(ts.pending.value, 3);
  ts.pending.result = 77;
  EXPECT_EQ(fa.await_resume(), 77);

  // A new op replaces the whole slot, its stale result included.
  (void)ctx.store(4, 40);
  EXPECT_EQ(ts.pending.kind, OpKind::kStore);
  EXPECT_EQ(ts.pending.addr, 4u);
  EXPECT_EQ(ts.pending.value, 40);
  EXPECT_EQ(ts.pending.result, 0);
  (void)ctx.compute(6);
  EXPECT_EQ(ts.pending.kind, OpKind::kCompute);
  EXPECT_EQ(ts.pending.value, 6);
}

SimTask nest_inner(Ctx ctx, Addr a) {
  const i64 v = co_await ctx.load(a);
  co_return v * 2;
}

SimTask nest_middle(Ctx ctx, Addr a) {
  const i64 v = co_await nest_inner(ctx, a);
  co_await ctx.store(a + 1, v);
  co_return v + 1;
}

SimThread nest_outer(Ctx ctx, Addr a) {
  const i64 v = co_await nest_middle(ctx, a);
  co_await ctx.store(a + 2, v);
  const i64 w = co_await ctx.load(a + 3);
  co_await ctx.store(a + 4, w);
}

TEST(SimTask, ResultsRoundTripThroughAThreeDeepNest) {
  ThreadState ts;
  Ctx ctx{&ts};
  SimThread t = nest_outer(ctx, 100);
  ts.root = t.bind(&ts);
  ts.handle = ts.root;

  ts.advance();  // suspended in the innermost helper
  EXPECT_EQ(ts.pending.kind, OpKind::kLoad);
  EXPECT_EQ(ts.pending.addr, 100u);
  EXPECT_NE(ts.handle, ts.root);
  ts.pending.result = 10;

  ts.advance();  // back in the middle helper, with the inner helper's value
  EXPECT_EQ(ts.pending.kind, OpKind::kStore);
  EXPECT_EQ(ts.pending.addr, 101u);
  EXPECT_EQ(ts.pending.value, 20);
  EXPECT_NE(ts.handle, ts.root);

  ts.advance();  // back in the kernel frame, with the middle helper's value
  EXPECT_EQ(ts.pending.kind, OpKind::kStore);
  EXPECT_EQ(ts.pending.addr, 102u);
  EXPECT_EQ(ts.pending.value, 21);
  EXPECT_EQ(ts.handle, ts.root);

  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kLoad);
  ts.pending.result = -5;
  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kStore);
  EXPECT_EQ(ts.pending.addr, 104u);
  EXPECT_EQ(ts.pending.value, -5);

  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kDone);
  ts.root.destroy();
}

TEST(SimTask, KernelFramesStartOnAHostLine) {
  ThreadState ts;
  Ctx ctx{&ts};
  SimThread t = three_ops(ctx, 0);
  ts.handle = t.bind(&ts);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ts.handle.address()) %
                detail::FramePool::kGranularity,
            0u);
  ts.handle.destroy();
}

using detail::FramePool;

bool line_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % FramePool::kGranularity == 0;
}

TEST(FramePool, BlocksAreLineAlignedAndReusedLifoWithinAClass) {
  FramePool pool;
  void* a = pool.alloc(100);  // class 2: 65..128 bytes
  void* b = pool.alloc(120);  // class 2
  void* c = pool.alloc(200);  // class 4
  EXPECT_TRUE(line_aligned(a));
  EXPECT_TRUE(line_aligned(b));
  EXPECT_TRUE(line_aligned(c));
  EXPECT_NE(a, b);

  pool.free(a, 100);
  pool.free(b, 120);
  pool.free(c, 200);
  EXPECT_EQ(pool.alloc(128), b);  // last freed of the class comes back first
  EXPECT_EQ(pool.alloc(65), a);
  void* d = pool.alloc(100);  // class 2 is empty now: a fresh block, not c
  EXPECT_NE(d, c);
  EXPECT_TRUE(line_aligned(d));
  EXPECT_EQ(pool.alloc(193), c);
  pool.free(a, 65);
  pool.free(b, 128);
  pool.free(c, 193);
  pool.free(d, 100);
}

TEST(FramePool, LiveBlocksNeverOverlapAcrossSlabBoundaries) {
  FramePool pool;
  // Mixed classes, up to the largest pooled one, over several slabs, so
  // slab tails too short for the next block are crossed many times.
  const usize sizes[] = {48, 300, 1000, 4032, 130, 2500};
  std::vector<std::pair<unsigned char*, usize>> blocks;
  usize total = 0;
  for (usize i = 0; total < 4 * FramePool::kSlabBytes; ++i) {
    const usize size = sizes[i % std::size(sizes)];
    auto* p = static_cast<unsigned char*>(pool.alloc(size));
    ASSERT_TRUE(line_aligned(p));
    std::memset(p, static_cast<int>(i & 0xFF), size);
    blocks.emplace_back(p, size);
    total += size;
  }
  // Every block still holds its own fill: no later block overlapped it.
  for (usize i = 0; i < blocks.size(); ++i) {
    const auto [p, size] = blocks[i];
    ASSERT_EQ(p[0], static_cast<unsigned char>(i & 0xFF)) << i;
    ASSERT_EQ(p[size - 1], static_cast<unsigned char>(i & 0xFF)) << i;
  }
  std::vector<std::pair<unsigned char*, usize>> sorted = blocks;
  std::sort(sorted.begin(), sorted.end());
  for (usize i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].first + sorted[i - 1].second, sorted[i].first);
  }
  for (const auto& [p, size] : blocks) pool.free(p, size);
}

TEST(FramePool, OversizedFramesFallThroughToOperatorNew) {
  FramePool pool;
  void* pooled = pool.alloc(4032);  // the largest pooled class
  pool.free(pooled, 4032);
  EXPECT_EQ(pool.alloc(4000), pooled);

  // Past the largest class the pool neither carves nor recycles: each block
  // is the global allocator's and goes straight back to it (a mismatched
  // delete fails under ASan).
  for (const usize size : {usize{4033}, usize{4097}, usize{64} << 10}) {
    auto* big = static_cast<unsigned char*>(pool.alloc(size));
    ASSERT_NE(big, nullptr);
    std::memset(big, 0xAB, size);
    EXPECT_NE(big, pooled);
    pool.free(big, size);
  }
  pool.free(pooled, 4000);
}

}  // namespace
}  // namespace archgraph::sim
