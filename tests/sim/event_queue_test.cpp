#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/prng.hpp"

namespace archgraph::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(30, 1, 0);
  q.push(10, 2, 0);
  q.push(20, 3, 0);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().kind, 2u);
  EXPECT_EQ(q.pop().kind, 3u);
  EXPECT_EQ(q.pop().kind, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  q.push(5, 10, 0);
  q.push(5, 11, 0);
  q.push(5, 12, 0);
  EXPECT_EQ(q.pop().kind, 10u);
  // Pushes at the current time (5, just popped) interleave correctly with
  // the remaining time-5 events: insertion order still wins.
  q.push(5, 13, 0);
  EXPECT_EQ(q.pop().kind, 11u);
  EXPECT_EQ(q.pop().kind, 12u);
  EXPECT_EQ(q.pop().kind, 13u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameCyclePushDuringDrain) {
  // The ready/issue/complete chains push at the time of the event being
  // handled — the fast-path case. Order must stay (time, insertion).
  EventQueue q;
  q.push(0, 1, 0);
  q.push(0, 2, 0);
  std::vector<u32> kinds;
  while (!q.empty()) {
    const Event e = q.pop();
    kinds.push_back(e.kind);
    if (e.kind < 3) q.push(e.time, e.kind + 10, 0);
  }
  EXPECT_EQ(kinds, (std::vector<u32>{1, 2, 11, 12}));
}

/// Reference model: a stable-sorted vector popped from the front. Stable
/// sort on time alone == (time, insertion order), the documented contract.
class ReferenceQueue {
 public:
  void push(Cycle time, u32 kind, u64 payload) {
    events_.push_back(Event{time, seq_++, kind, payload});
  }
  bool empty() const { return events_.empty(); }
  Event pop() {
    auto it = std::min_element(events_.begin(), events_.end(),
                               [](const Event& a, const Event& b) {
                                 if (a.time != b.time) return a.time < b.time;
                                 return a.seq < b.seq;
                               });
    const Event e = *it;
    events_.erase(it);
    return e;
  }

 private:
  std::vector<Event> events_;
  u64 seq_ = 0;
};

TEST(EventQueue, DifferentialAgainstReferenceModel) {
  // Random mixed push/pop workload shaped like the simulators': most pushes
  // land at or near the current time (exercising the same-cycle fast path
  // and its interaction with same-time heap entries), a few far ahead.
  Prng rng(0xec1122u);
  EventQueue q;
  ReferenceQueue ref;
  Cycle now = 0;
  u32 next_kind = 1;
  for (int step = 0; step < 20000; ++step) {
    if (!q.empty() && rng.below(100) < 55) {
      const Event a = q.pop();
      const Event b = ref.pop();
      ASSERT_EQ(a.time, b.time) << "step " << step;
      ASSERT_EQ(a.kind, b.kind) << "step " << step;
      ASSERT_EQ(a.payload, b.payload) << "step " << step;
      now = a.time;
    } else {
      const u64 roll = rng.below(100);
      Cycle time = now;
      if (roll >= 60) time = now + rng.below(5);          // near future
      if (roll >= 90) time = now + 100 + rng.below(500);  // far future
      if (roll < 3 && now > 0) time = now - 1;            // past (legal)
      const u32 kind = next_kind++;
      q.push(time, kind, kind * 3);
      ref.push(time, kind, kind * 3);
    }
    ASSERT_EQ(q.empty(), ref.empty());
  }
  while (!q.empty()) {
    const Event a = q.pop();
    const Event b = ref.pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.kind, b.kind);
  }
  EXPECT_TRUE(ref.empty());
}

TEST(EventQueue, DifferentialAcrossBucketWindowBoundary) {
  // Stress the two-level split: pushes land exactly at, just inside, and
  // just beyond the bucket window [win_base, win_base + kBuckets), plus
  // deep-future and past times, so events migrate between the bucket ring
  // and the overflow heap while interleaving with same-cycle FIFO traffic.
  constexpr Cycle kWin = static_cast<Cycle>(EventQueue::kBuckets);
  Prng rng(0xb0c4e7u);
  EventQueue q;
  ReferenceQueue ref;
  Cycle now = 0;
  u32 next_kind = 1;
  for (int step = 0; step < 30000; ++step) {
    if (!q.empty() && rng.below(100) < 55) {
      const Event a = q.pop();
      const Event b = ref.pop();
      ASSERT_EQ(a.time, b.time) << "step " << step;
      ASSERT_EQ(a.kind, b.kind) << "step " << step;
      now = a.time;
    } else {
      Cycle time = now;
      switch (rng.below(8)) {
        case 0: time = now; break;                          // same cycle
        case 1: time = now + 1 + rng.below(16); break;      // near future
        case 2: time = now + kWin - 2 + rng.below(4); break;  // window edge
        case 3: time = now + kWin + rng.below(64); break;   // just overflow
        case 4: time = now + 10 * kWin + rng.below(1000); break;  // deep
        case 5:  // past, including beyond the window's trailing edge
          time = now > 2 * kWin ? now - kWin - rng.below(64) : 0;
          break;
        default: time = now + rng.below(kWin); break;       // anywhere in win
      }
      const u32 kind = next_kind++;
      q.push(time, kind, kind);
      ref.push(time, kind, kind);
    }
    ASSERT_EQ(q.empty(), ref.empty());
  }
  while (!q.empty()) {
    const Event a = q.pop();
    const Event b = ref.pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.kind, b.kind);
  }
  EXPECT_TRUE(ref.empty());
}

TEST(EventQueue, DifferentialAcrossDrainAndReuse) {
  // A machine drains its queue at the end of every region and the next
  // region restarts at a small time, far behind everything popped so far.
  // A push into the empty queue behind its window re-anchors it; this
  // checks the queue against the reference across many drain/reuse rounds
  // whose restart times are small, equal to the last drained time, in its
  // past, or far ahead of it (no re-anchor), and whose follow-up pushes hit
  // the same-cycle, bucket and heap levels.
  constexpr Cycle kWin = static_cast<Cycle>(EventQueue::kBuckets);
  Prng rng(0xd7a1au);
  EventQueue q;
  ReferenceQueue ref;
  Cycle now = 0;
  u32 next_kind = 1;
  const auto pop_both = [&](int round) {
    const Event a = q.pop();
    const Event b = ref.pop();
    EXPECT_EQ(a.time, b.time) << "round " << round;
    EXPECT_EQ(a.kind, b.kind) << "round " << round;
    now = a.time;
  };
  const auto push_both = [&](Cycle time) {
    const u32 kind = next_kind++;
    q.push(time, kind, kind);
    ref.push(time, kind, kind);
  };
  for (int round = 0; round < 300; ++round) {
    // Restart: a small time, the last drained time, or a time in its past.
    Cycle start = 0;
    switch (rng.below(5)) {
      case 0: start = 0; break;
      case 1: start = rng.below(8); break;
      case 2: start = now; break;
      case 3: start = now + kWin + rng.below(kWin); break;
      default: start = now > 0 ? rng.below(now) : 0; break;
    }
    ASSERT_TRUE(q.empty());
    push_both(start);
    now = start;
    // Interleave pushes relative to the popped time with pops, then drain:
    // the far pushes stretch each round over several bucket windows.
    for (u64 i = 0, n = 50 + rng.below(200); i < n; ++i) {
      if (q.empty() || rng.below(100) < 60) {
        Cycle time = now;
        switch (rng.below(6)) {
          case 0: time = now; break;                               // same cycle
          case 1: time = now + 1; break;                           // next cycle
          case 2: time = now + rng.below(kWin); break;             // bucket
          case 3: time = now + kWin + rng.below(3 * kWin); break;  // heap
          case 4: time = now > 4 ? now - 1 - rng.below(4) : now; break;  // past
          default: time = now + 100; break;                        // latency
        }
        push_both(time);
      } else {
        pop_both(round);
      }
    }
    while (!q.empty()) {
      pop_both(round);
    }
    ASSERT_TRUE(ref.empty()) << "round " << round;
  }
}

TEST(EventQueue, PopDueStopsAtTheLimitAndNextTimePeeks) {
  // The per-cycle drain API agrees with the reference: next_time() is the
  // earliest pending time, pop_due() takes exactly the events at or before
  // its limit, in (time, seq) order, across every level.
  constexpr Cycle kWin = static_cast<Cycle>(EventQueue::kBuckets);
  Prng rng(0x9d0eu);
  EventQueue q;
  ReferenceQueue ref;
  Cycle now = 0;
  u32 next_kind = 1;
  for (int step = 0; step < 5000; ++step) {
    for (u64 i = 0, n = rng.below(4); i < n; ++i) {
      Cycle time = now + rng.below(3);
      if (rng.below(8) == 0) time = now + kWin + rng.below(kWin);
      if (rng.below(16) == 0 && now > 0) time = now - 1;
      const u32 kind = next_kind++;
      q.push(time, kind, kind);
      ref.push(time, kind, kind);
    }
    if (q.empty()) continue;
    const Cycle limit = q.next_time() + rng.below(2);
    Event e;
    while (q.pop_due(limit, e)) {
      const Event want = ref.pop();
      ASSERT_EQ(e.time, want.time) << "step " << step;
      ASSERT_EQ(e.kind, want.kind) << "step " << step;
      ASSERT_LE(e.time, limit);
      now = std::max(now, e.time);
    }
    if (!q.empty()) {
      EXPECT_GT(q.next_time(), limit);
    }
  }
  Event e;
  while (q.pop_due(std::numeric_limits<Cycle>::max(), e)) {
    EXPECT_EQ(e.kind, ref.pop().kind);
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_FALSE(q.pop_due(0, e));
}

TEST(EventQueue, SameCycleOrderingAcrossLevels) {
  // Same-time events must pop in insertion order even when some were pushed
  // while that time was beyond the window (heap) and some after it entered
  // the window (bucket).
  constexpr Cycle kWin = static_cast<Cycle>(EventQueue::kBuckets);
  EventQueue q;
  const Cycle t = kWin + 50;
  q.push(t, 1, 0);    // beyond window -> overflow heap
  q.push(t, 2, 0);    // also heap
  q.push(kWin, 9, 0);  // advances the window past t when popped
  EXPECT_EQ(q.pop().kind, 9u);
  q.push(t, 3, 0);  // t now in window -> bucket ring
  q.push(t, 4, 0);
  EXPECT_EQ(q.pop().kind, 1u);
  EXPECT_EQ(q.pop().kind, 2u);
  EXPECT_EQ(q.pop().kind, 3u);
  EXPECT_EQ(q.pop().kind, 4u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksFastPathAndHeap) {
  EventQueue q;
  q.push(0, 1, 0);  // fast path (now_ starts at 0)
  q.push(7, 2, 0);  // heap
  q.push(0, 3, 0);  // fast path
  EXPECT_EQ(q.size(), 3u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().kind, 2u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace archgraph::sim
