#include "sim/smp/cache.hpp"

#include <bit>

#include "common/check.hpp"

namespace archgraph::sim {

Cache::Cache(u64 size_bytes, u64 line_bytes, u32 ways)
    : line_bytes_(line_bytes), ways_(ways) {
  AG_CHECK(line_bytes >= kWordBytes && (line_bytes & (line_bytes - 1)) == 0,
           "line size must be a power of two >= one word");
  AG_CHECK(ways >= 1, "need at least one way");
  AG_CHECK(size_bytes % (line_bytes * ways) == 0,
           "cache size must divide into sets");
  line_shift_ = static_cast<u32>(std::countr_zero(line_bytes));
  sets_ = size_bytes / (line_bytes * ways);
  AG_CHECK(sets_ >= 1, "cache too small for its associativity");
  set_mask_ = (sets_ & (sets_ - 1)) == 0 ? sets_ - 1 : 0;
  slots_.assign(static_cast<usize>(sets_) * ways_, Way{});
}

Cache::AccessResult Cache::access(u64 line, bool write) {
  Way* const set = &slots_[set_base(line)];
  const u64 stamp = (++tick_ << 1) | static_cast<u64>(write);

  // Direct-mapped fast path (the E4500's 16 KB L1): one tag compare, no
  // victim scan.
  if (ways_ == 1) {
    Way& w = *set;
    if (w.line == line) {
      w.stamp = stamp | (w.stamp & 1);
      return AccessResult{.hit = true};
    }
    AccessResult result;
    if (w.line != kInvalid) {
      result.evicted = true;
      result.evicted_line = w.line;
      result.evicted_dirty = (w.stamp & 1) != 0;
    }
    w = Way{.line = line, .stamp = stamp};
    return result;
  }

  // Hit scan first — the common case pays no victim bookkeeping.
  for (u32 i = 0; i < ways_; ++i) {
    if (set[i].line == line) {
      set[i].stamp = stamp | (set[i].stamp & 1);
      return AccessResult{.hit = true};
    }
  }

  // Miss: victim is the first invalid way, else the LRU-oldest. Stamps are
  // distinct, so the oldest is unique and the dirty bit never decides it.
  u32 victim = 0;
  for (u32 i = 0; i < ways_; ++i) {
    if (set[i].line == kInvalid) {
      victim = i;
      break;
    }
    if (set[i].stamp < set[victim].stamp) {
      victim = i;
    }
  }
  AccessResult result;
  if (set[victim].line != kInvalid) {
    result.evicted = true;
    result.evicted_line = set[victim].line;
    result.evicted_dirty = (set[victim].stamp & 1) != 0;
  }
  set[victim] = Way{.line = line, .stamp = stamp};
  return result;
}

bool Cache::contains(u64 line) const {
  const Way* const set = &slots_[set_base(line)];
  for (u32 i = 0; i < ways_; ++i) {
    if (set[i].line == line) {
      return true;
    }
  }
  return false;
}

bool Cache::invalidate(u64 line) {
  Way* const set = &slots_[set_base(line)];
  for (u32 i = 0; i < ways_; ++i) {
    if (set[i].line == line) {
      const bool dirty = (set[i].stamp & 1) != 0;
      set[i] = Way{};
      return dirty;
    }
  }
  return false;
}

void Cache::clear() { slots_.assign(slots_.size(), Way{}); }

}  // namespace archgraph::sim
