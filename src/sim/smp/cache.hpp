// Set-associative cache model (timing only — data lives in SimMemory).
//
// Tracks tags, dirty bits and LRU order so the SMP machine can classify each
// access as L1 hit / L2 hit / memory fill and charge the right latency. A
// direct-mapped cache is ways == 1 (the E4500's 16 KB L1 is direct-mapped).
#pragma once

#include <new>
#include <vector>

#include "common/types.hpp"
#include "sim/types.hpp"

namespace archgraph::sim {

class Cache {
 public:
  /// size_bytes must be a multiple of line_bytes * ways; line_bytes a power
  /// of two.
  Cache(u64 size_bytes, u64 line_bytes, u32 ways);

  u64 line_bytes() const { return line_bytes_; }
  u64 num_sets() const { return sets_; }

  /// Line index of a simulated word address. Line sizes are validated powers
  /// of two, so this is a shift, not a multiply/divide.
  u64 line_of(Addr word_addr) const {
    return (word_addr * kWordBytes) >> line_shift_;
  }

  struct AccessResult {
    bool hit = false;
    bool evicted = false;
    u64 evicted_line = 0;
    bool evicted_dirty = false;
  };

  /// Looks up `line`; on a miss, installs it (evicting the LRU way).
  /// `write` marks the line dirty.
  AccessResult access(u64 line, bool write);

  bool contains(u64 line) const;

  /// Removes `line` if present; returns true iff it was present and dirty.
  bool invalidate(u64 line);

  /// Drops every line (region boundaries do not flush; tests use this).
  void clear();

 private:
  /// 16 bytes, so a 4-way set fills exactly one 64-byte host line. The
  /// stamp packs the LRU tick above the dirty bit: each access stamps at
  /// most one way, so valid ways' stamps are distinct and order exactly as
  /// their ticks do.
  struct Way {
    u64 line = kInvalid;
    u64 stamp = 0;  // tick << 1 | dirty
  };
  static constexpr u64 kInvalid = ~u64{0};

  /// Allocates the slot array on a host-line boundary, so no set of up to
  /// four ways straddles two lines.
  template <typename T>
  struct LineAligned {
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};
    LineAligned() = default;
    template <typename U>
    LineAligned(const LineAligned<U>&) {}
    T* allocate(usize n) {
      return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T* p, usize) { ::operator delete(p, kAlign); }
    bool operator==(const LineAligned&) const = default;
  };

  /// Set selection avoids the modulo in the common case: cache geometries
  /// are nearly always power-of-two set counts, where `line & mask` is exact.
  usize set_base(u64 line) const {
    const u64 set = set_mask_ != 0 || sets_ == 1 ? line & set_mask_
                                                 : line % sets_;
    return static_cast<usize>(set) * ways_;
  }

  u64 line_bytes_;
  u32 line_shift_;   // log2(line_bytes_)
  u64 sets_;
  u64 set_mask_;     // sets_ - 1 when sets_ is a power of two, else 0
  u32 ways_;
  u64 tick_ = 0;  // global LRU clock
  std::vector<Way, LineAligned<Way>> slots_;  // sets_ * ways_, set-major
};

}  // namespace archgraph::sim
