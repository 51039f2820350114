#include "sim/gpu/gpu_machine.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace archgraph::sim {

namespace {
/// Scratchpad tag meaning "slot empty" — simulated addresses are dense
/// bump-allocated indices, so the all-ones word never occurs.
constexpr Addr kNoTag = ~Addr{0};

/// Host-cache hint, no machine state: starts fetching the first two lines of
/// the thread's innermost coroutine frame, the ones its resume touches first.
void prefetch_frame(const ThreadState& ts) {
  const auto* frame = static_cast<const char*>(ts.handle.address());
  __builtin_prefetch(frame);
  __builtin_prefetch(frame + 64);
}
}  // namespace

void validate(const GpuConfig& c) {
  AG_CHECK(c.processors >= 1, "GpuConfig.processors must be >= 1 (got " +
                                  std::to_string(c.processors) + ")");
  AG_CHECK(c.warps_per_processor >= 1,
           "GpuConfig.warps_per_processor must be >= 1 (got " +
               std::to_string(c.warps_per_processor) + ")");
  AG_CHECK(c.warp_width >= 1, "GpuConfig.warp_width must be >= 1 (got " +
                                  std::to_string(c.warp_width) + ")");
  AG_CHECK(c.memory_latency >= 2,
           "GpuConfig.memory_latency must cover the round trip (>= 2, got " +
               std::to_string(c.memory_latency) + ")");
  AG_CHECK(c.mem_seg_bytes >= kWordBytes && c.mem_seg_bytes % kWordBytes == 0,
           "GpuConfig.mem_seg_bytes must be a positive multiple of the " +
               std::to_string(kWordBytes) + "-byte word (got " +
               std::to_string(c.mem_seg_bytes) + ")");
  AG_CHECK(c.smem_banks >= 1, "GpuConfig.smem_banks must be >= 1 (got " +
                                  std::to_string(c.smem_banks) + ")");
  AG_CHECK(c.smem_words >= 1, "GpuConfig.smem_words must be >= 1 (got " +
                                  std::to_string(c.smem_words) + ")");
  AG_CHECK(c.smem_latency >= 1, "GpuConfig.smem_latency must be >= 1 (got " +
                                    std::to_string(c.smem_latency) + ")");
  AG_CHECK(c.region_fork_cycles >= 0,
           "GpuConfig.region_fork_cycles must be >= 0 (got " +
               std::to_string(c.region_fork_cycles) + ")");
  AG_CHECK(c.barrier_overhead >= 0,
           "GpuConfig.barrier_overhead must be >= 0 (got " +
               std::to_string(c.barrier_overhead) + ")");
  AG_CHECK(c.clock_hz > 0, "GpuConfig.clock_hz must be positive (got " +
                               std::to_string(c.clock_hz) + ")");
}

GpuMachine::GpuMachine(GpuConfig config) : config_(config) {
  validate(config_);
  const u64 words_per_seg = config_.mem_seg_bytes / kWordBytes;
  if (std::has_single_bit(words_per_seg)) {
    seg_pow2_ = true;
    seg_shift_ = static_cast<u32>(std::countr_zero(words_per_seg));
  }
  if (std::has_single_bit(static_cast<u64>(config_.smem_banks))) {
    bank_mask_ = config_.smem_banks - 1;
  }
  if (std::has_single_bit(static_cast<u64>(config_.smem_words))) {
    smem_mask_ = config_.smem_words - 1;
  }
}

void GpuMachine::settle(Sm& sm, Cycle t) {
  if (t <= sm.acct_until) {
    return;  // already attributed (or a past-time event) — nothing to add
  }
  // Priority order mirrors the occupancy story: if any lane has a memory
  // round trip in flight, its warp is stalled on latency the scheduler
  // failed to cover with other warps (coalesce_wait — the serialized
  // transactions and the unhidden tail are the same shortage); otherwise
  // parked sync waiters, then barrier waiters, explain the silence; with no
  // warp holding work at all the slot is idle (launch ramp, admission,
  // drain, or an unused SM).
  CycleCat cat = CycleCat::kIdleNoThread;
  if (sm.acct_mem > 0) {
    cat = CycleCat::kCoalesceWait;
  } else if (sm.acct_sync > 0) {
    cat = CycleCat::kSyncBlocked;
  } else if (sm.acct_barrier > 0) {
    cat = CycleCat::kBarrier;
  }
  stats_.breakdown[cat] += t - sm.acct_until;
  sm.acct_until = t;
}

void GpuMachine::attribute_upto(Sm& sm, CycleCat cat, Cycle t) {
  if (t > sm.acct_until) {
    stats_.breakdown[cat] += t - sm.acct_until;
    sm.acct_until = t;
  }
}

void GpuMachine::acct_complete(u32 tid, Cycle now) {
  ThreadState* ts = threads_[tid];
  Sm& sm = sms_[ts->processor];
  settle(sm, now);
  switch (ts->pending.kind) {
    case OpKind::kLoad:
    case OpKind::kStore:
    case OpKind::kFetchAdd:
    case OpKind::kReadFF:
    case OpKind::kReadFE:
    case OpKind::kWriteEF:
      --sm.acct_mem;  // the round trip (or satisfied sync flight) landed
      break;
    case OpKind::kBarrier:
      --sm.acct_barrier;  // the release reached this lane
      break;
    default:
      break;  // compute occupancy: the slots were attributed at issue
  }
}

bool GpuMachine::smem_probe(Sm& sm, Addr addr, bool fill) {
  const usize slot = smem_mask_ != 0
                         ? static_cast<usize>(addr & smem_mask_)
                         : static_cast<usize>(addr % sm.smem_tags.size());
  if (sm.smem_tags[slot] == addr) {
    return true;
  }
  if (fill) {
    sm.smem_tags[slot] = addr;  // write-allocate (timing only, no coherence)
  }
  return false;
}

Cycle GpuMachine::simulate(std::vector<ThreadState*>& threads) {
  // --- reset region state -------------------------------------------------
  threads_ = threads;
  sms_.assign(config_.processors, Sm{});
  for (Sm& sm : sms_) {
    sm.smem_tags.assign(config_.smem_words, kNoTag);
  }
  sync_waiters_.clear();
  barrier_waiting_.clear();
  release_buf_.clear();
  barrier_max_arrival_ = 0;
  live_ = static_cast<i64>(threads_.size());
  region_end_ = 0;
  AG_CHECK(events_.empty(), "stale events from a previous region");

  // --- warp formation: consecutive thread ids share a warp; warps map
  // round-robin over SMs. Warps beyond the per-SM residency wait for a slot
  // (a CUDA grid launches more blocks than fit; the hardware streams them in
  // as resident blocks retire).
  const u32 n = static_cast<u32>(threads_.size());
  const u32 warp_count = (n + config_.warp_width - 1) / config_.warp_width;
  warps_.assign(warp_count, Warp{});
  // Flat ring arena: each SM gets two power-of-two windows (ready,
  // admission). Round-robin warp placement bounds both queues by the SM's
  // warp share, and a warp sits in at most one ring at a time, so the
  // windows never overflow. Grow-only, so repeated regions reuse the arena.
  const u32 cap = ring_capacity_for(
      (warp_count + config_.processors - 1) / config_.processors);
  const usize arena_need = static_cast<usize>(cap) * 2 * config_.processors;
  if (ring_arena_.size() < arena_need) {
    ring_arena_.resize(arena_need);
  }
  for (u32 p = 0; p < config_.processors; ++p) {
    u32* base = ring_arena_.data() + static_cast<usize>(p) * 2 * cap;
    sms_[p].ready_fifo.bind(base, cap);
    sms_[p].admission_queue.bind(base + cap, cap);
  }
  for (u32 wid = 0; wid < warp_count; ++wid) {
    Warp& w = warps_[wid];
    w.sm = wid % config_.processors;
    w.first = wid * config_.warp_width;
    w.last = std::min(w.first + config_.warp_width, n);
    w.live = w.last - w.first;
  }
  for (u32 wid = 0; wid < warp_count; ++wid) {
    Sm& sm = sms_[warps_[wid].sm];
    if (sm.resident < config_.warps_per_processor) {
      admit_warp(wid, config_.region_fork_cycles);
    } else {
      sm.admission_queue.push(wid);
    }
  }

  // --- main event loop ----------------------------------------------------
  if (prof_hook_ != nullptr) {
    run_events<true>();
  } else {
    run_events<false>();
  }

  AG_CHECK(live_ == 0,
           "GPU simulation deadlocked: lanes wait on full/empty tags or a "
           "barrier that can never be satisfied");
  // Close the accounting: attribute every SM's tail gap up to the region
  // end, so per-SM attribution totals exactly region_end_ and the region's
  // breakdown delta sums to processors x cycles.
  for (Sm& sm : sms_) {
    if (sm.acct_until > region_end_) {
      // Only reachable with barrier_overhead == 0: the last arrival's issue
      // slot extends one cycle past the release that ended the region. Clip
      // the overrun so attribution matches the region span exactly.
      stats_.breakdown[CycleCat::kIssued] -= sm.acct_until - region_end_;
      sm.acct_until = region_end_;
    }
    settle(sm, region_end_);
  }
  // threads_ holds raw pointers into the caller's region-local vector, which
  // dies when run_region() returns; drop them so hooks sampling between
  // regions never dereference freed ThreadStates. sms_ stays: the profiler's
  // on_prof_region_end still reads the issued gauges, and the next
  // simulate() reassigns it.
  threads_.clear();
  return region_end_;
}

template <bool Profiled>
void GpuMachine::run_events() {
  while (!events_.empty()) {
    const Event e = events_.pop();
    if constexpr (Profiled) {
      prof_hook_->on_advance(*this, e.time);
    }
    switch (static_cast<EventKind>(e.kind)) {
      case kIssue:
        handle_issue<Profiled>(static_cast<u32>(e.payload), e.time);
        break;
      case kComplete: {
        // Only satisfied full/empty flights complete one lane at a time now
        // (their issue interleaves wake_waiters pushes, so they cannot
        // batch); all of them held an in-flight slot.
        const auto tid = static_cast<u32>(e.payload);
        acct_complete(tid, e.time);
        --warps_[tid / config_.warp_width].in_flight;
        advance_thread(*threads_[tid]);
        post_advance(tid, e.time);
        break;
      }
      case kRetry:
        attempt_sync_retry(static_cast<u32>(e.payload), e.time);
        break;
      case kBatch: {
        // A whole compute or global-memory issue group lands together. The
        // group is exactly the warp's lanes still in kWaitMemory on this op
        // kind: other lanes either finished, parked on a tag/barrier
        // (different kind or status), or belong to a different group of this
        // round (groups are partitioned by kind). Ascending-tid replay
        // matches the order the per-lane events popped in.
        //
        // The per-lane acct_complete/maybe_enqueue_warp calls are hoisted
        // out of the loop: all group lanes share one SM and one op kind, so
        // after the first settle every later one is a no-op, and while the
        // loop runs w.in_flight > 0 (this round's groups land as a unit),
        // so only the final lane's enqueue attempt could ever fire — made
        // after the loop instead. on_finish stays inline: it retires warps
        // and admits queued ones, and that order is observable.
        const u32 wid = static_cast<u32>(e.payload >> 4);
        const auto kind = static_cast<OpKind>(e.payload & 0xF);
        Warp& w = warps_[wid];
        Sm& sm = sms_[w.sm];
        settle(sm, e.time);
        const bool mem = kind == OpKind::kLoad || kind == OpKind::kStore ||
                         kind == OpKind::kFetchAdd;
        // A wide region's suspended lane frames do not fit in the host
        // cache, so start every group lane's frame fetch before the first
        // resume instead of missing once per lane in turn.
        for (u32 tid = w.first; tid < w.last; ++tid) {
          if (status_of(tid) == ThreadState::Status::kWaitMemory &&
              pending_kind(tid) == kind) {
            prefetch_frame(*threads_[tid]);
          }
        }
        for (u32 tid = w.first; tid < w.last; ++tid) {
          if (status_of(tid) != ThreadState::Status::kWaitMemory ||
              pending_kind(tid) != kind) {
            continue;
          }
          if (mem) {
            --sm.acct_mem;  // the lane's global round trip landed
          }
          --w.in_flight;
          advance_thread(*threads_[tid]);
          if (pending_kind(tid) == OpKind::kDone) {
            on_finish(tid, e.time);
          } else {
            set_status(tid, ThreadState::Status::kRunnable);
          }
        }
        maybe_enqueue_warp(wid, e.time);
        break;
      }
      case kRelease:
        // Barrier lanes never held an in-flight slot (they were masked).
        for (usize i = 0; i < release_buf_.size(); ++i) {
          const u32 tid = release_buf_[i];
          acct_complete(tid, e.time);
          advance_thread(*threads_[tid]);
          post_advance(tid, e.time);
        }
        release_buf_.clear();
        break;
    }
  }
}

void GpuMachine::admit_warp(u32 wid, Cycle now) {
  Warp& w = warps_[wid];
  w.resident = true;
  ++sms_[w.sm].resident;
  for (u32 tid = w.first; tid < w.last; ++tid) {
    threads_[tid]->processor = w.sm;
    advance_thread(*threads_[tid]);
    post_advance(tid, now);
  }
}

void GpuMachine::post_advance(u32 tid, Cycle now) {
  ThreadState* ts = threads_[tid];
  if (ts->pending.kind == OpKind::kDone) {
    on_finish(tid, now);
  } else {
    set_status(tid, ThreadState::Status::kRunnable);
    maybe_enqueue_warp(tid / config_.warp_width, now);
  }
}

void GpuMachine::maybe_enqueue_warp(u32 wid, Cycle now) {
  Warp& w = warps_[wid];
  // Lockstep readiness: every lane's flight must have landed (the warp waits
  // for its slowest lane) and at least one lane must hold an issuable op.
  // Lanes parked on a tag or a barrier are masked: they neither hold a
  // flight nor count as issuable.
  if (!w.resident || w.queued || w.in_flight > 0 || w.live == 0) {
    return;
  }
  bool any_runnable = false;
  for (u32 tid = w.first; tid < w.last; ++tid) {
    if (status_of(tid) == ThreadState::Status::kRunnable) {
      any_runnable = true;
      break;
    }
  }
  if (!any_runnable) {
    return;
  }
  w.queued = true;
  Sm& sm = sms_[w.sm];
  sm.ready_fifo.push(wid);
  if (!sm.issue_scheduled) {
    sm.issue_scheduled = true;
    events_.push(std::max(now, sm.clock), kIssue, w.sm);
  }
}

template <bool Profiled>
void GpuMachine::handle_issue(u32 sm_id, Cycle now) {
  Sm& sm = sms_[sm_id];
  if (sm.ready_fifo.empty()) {
    sm.issue_scheduled = false;
    return;
  }
  const u32 wid = sm.ready_fifo.pop();
  Warp& w = warps_[wid];
  w.queued = false;

  // Cycle accounting: classify the silent gap up to this issue round, then
  // claim the round's slots group by group below.
  settle(sm, now);

  runnable_lanes_.clear();
  for (u32 tid = w.first; tid < w.last; ++tid) {
    if (status_of(tid) == ThreadState::Status::kRunnable) {
      runnable_lanes_.push_back(tid);
    }
  }
  AG_CHECK(!runnable_lanes_.empty(), "warp queued with no runnable lane");

  // Divergence split: partition the runnable lanes by the operation they
  // present, in first-appearance order over ascending lane id. A convergent
  // warp forms one group; divergent paths issue serially, and every group
  // after the first charges its slots to kDivergenceSerial.
  std::array<OpKind, 8> kinds{};
  usize kind_count = 0;
  for (const u32 tid : runnable_lanes_) {
    const OpKind k = pending_kind(tid);
    bool seen = false;
    for (usize i = 0; i < kind_count; ++i) {
      if (kinds[i] == k) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      kinds[kind_count++] = k;
    }
  }

  Cycle t = now;
  for (usize gi = 0; gi < kind_count; ++gi) {
    const OpKind kind = kinds[gi];
    const CycleCat base_cat =
        gi == 0 ? CycleCat::kIssued : CycleCat::kDivergenceSerial;
    group_lanes_.clear();
    for (const u32 tid : runnable_lanes_) {
      if (pending_kind(tid) == kind) {
        group_lanes_.push_back(tid);
      }
    }
    const auto lanes = static_cast<i64>(group_lanes_.size());

    switch (kind) {
      case OpKind::kCompute: {
        // Lockstep ALU: the group occupies the SM for the longest lane's
        // slot count; every lane rides along for all of it.
        i64 v = 1;
        for (const u32 tid : group_lanes_) {
          v = std::max(v, std::max<i64>(threads_[tid]->pending.value, 1));
        }
        attribute_upto(sm, base_cat, t + v);
        stats_.instructions += v;
        sm.issued += v;
        for (const u32 tid : group_lanes_) {
          threads_[tid]->instructions += v;
          set_status(tid, ThreadState::Status::kWaitMemory);
          ++w.in_flight;
        }
        events_.push(t + v, kBatch,
                     (static_cast<u64>(wid) << 4) | static_cast<u64>(kind));
        t += v;
        break;
      }
      case OpKind::kLoad:
      case OpKind::kStore:
      case OpKind::kFetchAdd: {
        // Coalescing: loads/stores first probe the SM scratchpad (hits are
        // serviced there, bank conflicts serialize); the missing lanes'
        // addresses merge into aligned mem_seg_bytes segments — one global
        // transaction per distinct segment. Atomics bypass the scratchpad
        // and always serialize one transaction per lane.
        segments_.clear();
        bank_load_.assign(config_.smem_banks, 0);
        u32 smem_lanes = 0;
        u32 max_bank = 0;
        i64 atomic_lanes = 0;
        for (const u32 tid : group_lanes_) {
          const Addr addr = threads_[tid]->pending.addr;
          const bool smem_hit =
              kind != OpKind::kFetchAdd && smem_probe(sm, addr, /*fill=*/true);
          if (smem_hit) {
            ++smem_lanes;
            const usize bank =
                bank_mask_ != 0
                    ? static_cast<usize>(addr & bank_mask_)
                    : static_cast<usize>(addr % config_.smem_banks);
            max_bank = std::max(max_bank, ++bank_load_[bank]);
          } else if (kind == OpKind::kFetchAdd) {
            ++atomic_lanes;  // atomics never coalesce: one transaction each
          } else {
            // Distinct-segment collection. At most warp_width entries, so a
            // linear probe beats sort+unique; consecutive lanes usually share
            // a segment (coalesced stride), so check the newest entry first.
            const usize seg = segment_of(addr);
            if (segments_.empty() || segments_.back() != seg) {
              bool seen = false;
              for (const usize s : segments_) {
                if (s == seg) {
                  seen = true;
                  break;
                }
              }
              if (!seen) segments_.push_back(seg);
            }
          }
          if constexpr (Profiled) {
            prof_hook_->on_access(addr,
                                  smem_hit ? AccessClass::kL1Hit
                                  : kind == OpKind::kFetchAdd
                                      ? AccessClass::kRmw
                                      : AccessClass::kMemRef,
                                  kind != OpKind::kLoad);
          }
        }
        const i64 transactions = kind == OpKind::kFetchAdd
                                     ? atomic_lanes
                                     : static_cast<i64>(segments_.size());
        // One base slot, then the serialized extra transactions, then the
        // serialized extra bank passes.
        attribute_upto(sm, base_cat, t + 1);
        if (transactions > 1) {
          attribute_upto(sm, CycleCat::kCoalesceWait, t + transactions);
        }
        const i64 bank_extra =
            max_bank > 1 ? static_cast<i64>(max_bank) - 1 : 0;
        const Cycle occ = std::max<i64>(transactions, 1) + bank_extra;
        if (bank_extra > 0) {
          attribute_upto(sm, CycleCat::kBankConflict, t + occ);
        }
        stats_.instructions += 1;
        sm.issued += occ;
        stats_.memory_ops += lanes;
        if (kind == OpKind::kLoad) stats_.loads += lanes;
        if (kind == OpKind::kStore) stats_.stores += lanes;
        if (kind == OpKind::kFetchAdd) stats_.fetch_adds += lanes;
        stats_.l1_hits += smem_lanes;
        stats_.mem_fills += transactions;
        // Data effects apply at issue in lane order, so fetch-add sequences
        // within a warp are deterministic.
        for (const u32 tid : group_lanes_) {
          ThreadState* ts = threads_[tid];
          Operation& op = ts->pending;
          switch (kind) {
            case OpKind::kLoad:
              op.result = memory_.read(op.addr);
              break;
            case OpKind::kStore:
              memory_.write(op.addr, op.value);
              memory_.set_full(op.addr, true);
              break;
            default: {  // kFetchAdd
              const i64 old = memory_.read(op.addr);
              memory_.write(op.addr, old + op.value);
              op.result = old;
              break;
            }
          }
          ts->instructions += 1;
          ts->memory_ops += 1;
          set_status(tid, ThreadState::Status::kWaitMemory);
          ++w.in_flight;
          ++sm.acct_mem;  // round trip in flight until the batch completion
        }
        // The whole group lands together: its slowest lane's round trip.
        const Cycle done = t + occ +
                           (transactions > 0 ? config_.memory_latency
                                             : config_.smem_latency);
        events_.push(done, kBatch,
                     (static_cast<u64>(wid) << 4) | static_cast<u64>(kind));
        t += occ;
        break;
      }
      case OpKind::kReadFF:
      case OpKind::kReadFE:
      case OpKind::kWriteEF: {
        // Tag-bit sync maps to global atomics: one serialized transaction
        // per lane (never coalesced). Satisfied lanes ride the round trip;
        // unsatisfied lanes park masked and re-arbitrate when the tag flips.
        attribute_upto(sm, base_cat, t + 1);
        if (lanes > 1) {
          attribute_upto(sm, CycleCat::kCoalesceWait, t + lanes);
        }
        stats_.instructions += 1;
        sm.issued += lanes;
        stats_.memory_ops += lanes;
        stats_.sync_ops += lanes;
        const Cycle group_end = t + lanes;
        for (const u32 tid : group_lanes_) {
          ThreadState* ts = threads_[tid];
          Operation& op = ts->pending;
          ts->instructions += 1;
          ts->memory_ops += 1;
          if constexpr (Profiled) {
            prof_hook_->on_access(op.addr, AccessClass::kRmw,
                                  kind == OpKind::kWriteEF);
          }
          const bool full = memory_.full(op.addr);
          bool satisfied = false;
          switch (kind) {
            case OpKind::kReadFF:
              if (full) {
                op.result = memory_.read(op.addr);
                satisfied = true;
              }
              break;
            case OpKind::kReadFE:
              if (full) {
                op.result = memory_.read(op.addr);
                memory_.set_full(op.addr, false);
                satisfied = true;
              }
              break;
            default:  // kWriteEF
              if (!full) {
                memory_.write(op.addr, op.value);
                memory_.set_full(op.addr, true);
                satisfied = true;
              }
              break;
          }
          if (satisfied) {
            // A tag flip may unblock waiters of the opposite polarity.
            if (kind != OpKind::kReadFF) {
              wake_waiters(op.addr, group_end);
            }
            set_status(tid, ThreadState::Status::kWaitMemory);
            ++w.in_flight;
            ++sm.acct_mem;
            events_.push(group_end + config_.memory_latency, kComplete, tid);
          } else {
            set_status(tid, ThreadState::Status::kWaitSync);
            sync_waiters_[op.addr].push_back(tid);
            ++sm.acct_sync;  // parked and masked until a retry succeeds
          }
        }
        t = group_end;
        break;
      }
      case OpKind::kBarrier: {
        attribute_upto(sm, base_cat, t + 1);
        stats_.instructions += 1;
        sm.issued += 1;
        for (const u32 tid : group_lanes_) {
          threads_[tid]->instructions += 1;
          ++sm.acct_barrier;  // parked until the release kComplete
          barrier_arrive(tid, t + 1);
        }
        t += 1;
        break;
      }
      case OpKind::kNone:
      case OpKind::kDone:
        AG_CHECK(false, "invalid operation reached the issue stage");
    }
  }

  sm.clock = t;  // the SM's issue/LSU pipe is occupied for the whole round
  if (!sm.ready_fifo.empty()) {
    events_.push(sm.clock, kIssue, sm_id);
  } else {
    sm.issue_scheduled = false;
  }
}

void GpuMachine::attempt_sync_retry(u32 tid, Cycle now) {
  ThreadState* ts = threads_[tid];
  Operation& op = ts->pending;
  Sm& sm = sms_[ts->processor];
  if (prof_hook_ != nullptr) {
    // Every retry probes the word again — retry traffic shows up in the
    // heatmap, exactly as on the MTA.
    prof_hook_->on_access(op.addr, AccessClass::kRmw,
                          op.kind == OpKind::kWriteEF);
  }
  const bool full = memory_.full(op.addr);
  bool satisfied = false;
  switch (op.kind) {
    case OpKind::kReadFF:
      if (full) {
        op.result = memory_.read(op.addr);
        satisfied = true;
      }
      break;
    case OpKind::kReadFE:
      if (full) {
        op.result = memory_.read(op.addr);
        memory_.set_full(op.addr, false);
        satisfied = true;
      }
      break;
    case OpKind::kWriteEF:
      if (!full) {
        memory_.write(op.addr, op.value);
        memory_.set_full(op.addr, true);
        satisfied = true;
      }
      break;
    default:
      AG_CHECK(false, "attempt_sync_retry() on a non-sync op");
  }

  if (satisfied) {
    // Classify the parked gap before the lane moves on: sync -> mem at the
    // wake time, then the atomic's round trip.
    settle(sm, now);
    --sm.acct_sync;
    ++sm.acct_mem;
    if (op.kind != OpKind::kReadFF) {
      wake_waiters(op.addr, now);
    }
    set_status(tid, ThreadState::Status::kWaitMemory);
    ++warps_[tid / config_.warp_width].in_flight;
    events_.push(now + config_.memory_latency, kComplete, tid);
  } else {
    sync_waiters_[op.addr].push_back(tid);
  }
}

void GpuMachine::wake_waiters(Addr addr, Cycle now) {
  const auto it = sync_waiters_.find(addr);
  if (it == sync_waiters_.end() || it->second.empty()) {
    return;
  }
  // Re-arbitrate every waiter in FIFO order; each recheck is another atomic
  // probe — the retry traffic that makes hotspots hurt.
  std::deque<u32> woken = std::move(it->second);
  sync_waiters_.erase(it);
  for (const u32 tid : woken) {
    stats_.sync_retries += 1;
    events_.push(now, kRetry, tid);
  }
}

void GpuMachine::barrier_arrive(u32 tid, Cycle now) {
  set_status(tid, ThreadState::Status::kWaitBarrier);
  barrier_waiting_.push_back(tid);
  barrier_max_arrival_ = std::max(barrier_max_arrival_, now);
  maybe_release_barrier();
}

void GpuMachine::maybe_release_barrier() {
  if (static_cast<i64>(barrier_waiting_.size()) != live_ || live_ == 0) {
    return;
  }
  const Cycle release = barrier_max_arrival_ + config_.barrier_overhead;
  // Every live lane is parked here, so at most one release is ever in
  // flight: resume the whole episode with a single kRelease event instead of
  // one queue entry per lane. run_events() replays release_buf_ in arrival
  // order, which is exactly the order the per-lane events popped in.
  AG_DCHECK(release_buf_.empty(), "overlapping barrier releases");
  for (const u32 tid : barrier_waiting_) {
    threads_[tid]->pending.result = 0;
    set_status(tid, ThreadState::Status::kWaitMemory);
  }
  release_buf_.swap(barrier_waiting_);  // leaves barrier_waiting_ empty
  events_.push(release, kRelease, 0);
  barrier_max_arrival_ = 0;
  stats_.barriers += 1;
  // Settle the accounting up to the release before observers snapshot
  // stats(): every live lane is parked here (nothing is in flight), so the
  // per-phase breakdown deltas slice exactly at barrier boundaries. The
  // release event's completions settle no-op and drop the barrier counters.
  for (Sm& sm : sms_) {
    settle(sm, release);
  }
  notify_barrier_release(release);
}

std::vector<ProfGaugeInfo> GpuMachine::prof_gauge_info() const {
  std::vector<ProfGaugeInfo> info;
  info.reserve(config_.processors + 3);
  for (u32 p = 0; p < config_.processors; ++p) {
    info.push_back({"p" + std::to_string(p) + ".issued", /*cumulative=*/true});
  }
  info.push_back({"warps_ready", /*cumulative=*/false});
  info.push_back({"warps_blocked", /*cumulative=*/false});
  info.push_back({"mem_outstanding", /*cumulative=*/false});
  return info;
}

void GpuMachine::sample_prof_gauges(i64* out) const {
  // Gauge slots follow prof_gauge_info(): config_.processors issued
  // counters, then ready/blocked/outstanding. Before the first region sms_
  // is still empty; pad the per-SM slots so the layout stays aligned (the
  // machine is idle then, so zero is also the true value).
  i64 ready = 0;
  i64 resident = 0;
  i64 outstanding = 0;
  usize i = 0;
  for (u32 p = 0; p < config_.processors; ++p) {
    if (p < sms_.size()) {
      const Sm& sm = sms_[p];
      out[i++] = sm.issued;
      ready += static_cast<i64>(sm.ready_fifo.size());
      resident += sm.resident;
      // acct_mem counts exactly the lanes in kWaitMemory on a global or
      // satisfied-sync round trip (compute occupancy and barrier releases
      // are charged elsewhere), so summing it replaces the per-thread walk.
      outstanding += sm.acct_mem;
    } else {
      out[i++] = 0;
    }
  }
  out[i++] = ready;
  out[i++] = resident - ready;  // warps holding a slot but not issuable
  out[i] = outstanding;
}

void GpuMachine::on_finish(u32 tid, Cycle now) {
  set_status(tid, ThreadState::Status::kFinished);
  --live_;
  region_end_ = std::max(region_end_, now);
  Warp& w = warps_[tid / config_.warp_width];
  --w.live;
  if (w.live == 0 && w.resident) {
    // The whole warp retired: free its residency slot and stream in the
    // next queued warp (block-at-a-time admission, like the MTA's streams).
    w.resident = false;
    Sm& sm = sms_[w.sm];
    --sm.resident;
    if (!sm.admission_queue.empty()) {
      admit_warp(sm.admission_queue.pop(), now);
    }
  } else {
    // This lane's completion may have been the flight the rest of the warp
    // was lockstep-waiting on; the surviving runnable lanes still need an
    // issue slot.
    maybe_enqueue_warp(tid / config_.warp_width, now);
  }
  // A finished lane no longer participates in barriers.
  maybe_release_barrier();
}

}  // namespace archgraph::sim
