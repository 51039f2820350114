// Size-classed free-list allocator for coroutine frames.
//
// Every spawned kernel thread and every nested SimTask helper allocates one
// coroutine frame. Fine-grain kernels (Shiloach-Vishkin graft/shortcut, BFS
// expansion) spawn hundreds of thousands of short-lived threads per cell, so
// frame allocation is a first-order host cost: profiled on the hot-path
// bench, malloc/free traffic for frames was ~10-25% of wall time, and the
// cold frames it hands back defeat the cache. This pool recycles frames
// LIFO within a size class, so the steady-state working set is the handful
// of frame shapes the active kernels use, served from cache-warm memory.
//
// New blocks are carved from 64-byte-aligned slabs of kSlabBytes, not
// malloc'd one by one: every frame starts on a host cache line, carries no
// malloc header, and the live frames of a wide region (a GPU cell keeps
// thousands of lanes suspended at once) pack densely whichever malloc arena
// the thread happens to use. A slab's tail too short for the next block is
// left unused.
//
// Thread safety: the pool is thread_local. A frame is always allocated and
// freed on the thread simulating its region (spawn, resume, and region
// teardown all happen on the caller of Machine::run_region), so per-thread
// pools need no locks and sweep workers cannot contend.
//
// Slabs are never returned to the system until thread exit; the pool's
// high-water mark is one region's peak live frames, which is bounded by the
// largest spawn count a kernel driver requests.
#pragma once

#include <array>
#include <cstddef>
#include <new>
#include <vector>

#include "common/types.hpp"

namespace archgraph::sim::detail {

class FramePool {
 public:
  static constexpr usize kGranularity = 64;  // one host cache line
  static constexpr usize kClasses = 64;      // pooled frames are < 4 KiB
  static constexpr usize kSlabBytes = usize{256} << 10;

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  void* alloc(usize size) {
    const usize cls = class_of(size);
    if (cls >= kClasses) {
      return ::operator new(size);  // oversized frame: fall through
    }
    if (FreeNode* node = free_[cls]) {
      free_[cls] = node->next;
      return node;
    }
    return carve(cls * kGranularity);
  }

  void free(void* p, usize size) noexcept {
    const usize cls = class_of(size);
    if (cls >= kClasses) {
      ::operator delete(p);
      return;
    }
    FreeNode* node = static_cast<FreeNode*>(p);
    node->next = free_[cls];
    free_[cls] = node;
  }

  ~FramePool() {
    for (std::byte* slab : slabs_) {
      ::operator delete(slab, kSlabAlign);
    }
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static constexpr std::align_val_t kSlabAlign{kGranularity};

  static usize class_of(usize size) {
    return (size + kGranularity - 1) / kGranularity;
  }

  void* carve(usize bytes) {
    if (static_cast<usize>(slab_end_ - cursor_) < bytes) {
      slabs_.reserve(slabs_.size() + 1);  // a throw here leaks no slab
      cursor_ = static_cast<std::byte*>(::operator new(kSlabBytes, kSlabAlign));
      slab_end_ = cursor_ + kSlabBytes;
      slabs_.push_back(cursor_);
    }
    void* block = cursor_;
    cursor_ += bytes;
    return block;
  }

  std::array<FreeNode*, kClasses> free_{};
  std::byte* cursor_ = nullptr;    // next uncarved byte of the newest slab
  std::byte* slab_end_ = nullptr;
  std::vector<std::byte*> slabs_;  // every slab, freed at thread exit
};

inline FramePool& frame_pool() {
  static thread_local FramePool pool;
  return pool;
}

}  // namespace archgraph::sim::detail
