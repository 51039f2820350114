// The simulated-thread coroutine type and its operation awaitables.
//
// A kernel is an ordinary C++20 coroutine:
//
//   SimThread worker(Ctx ctx, Args...) {
//     i64 v = co_await ctx.load(a);     // 1 issue slot + memory latency
//     co_await ctx.compute(3);          // 3 ALU instructions
//     co_await ctx.store(b, v + 1);     // 1 issue slot + memory latency
//   }
//
// Between co_awaits the coroutine runs host-native at zero simulated cost, so
// by convention every kernel charges its ALU work explicitly with compute().
// The same kernel runs unchanged on the MTA and SMP machine models — only the
// per-operation timing differs. This is the machine-neutral program
// representation the whole reproduction rests on.
//
// Kernels can factor shared loop shapes into SimTask sub-coroutines (see
// core/kernels/sim_par.hpp): `co_await helper(ctx, ...)` suspends the caller
// until the helper finishes, and every op the helper issues is charged to the
// calling thread. The nesting itself costs zero simulated cycles.
#pragma once

#include <coroutine>
#include <exception>

#include "common/types.hpp"
#include "sim/frame_pool.hpp"
#include "sim/types.hpp"

namespace archgraph::sim {

/// Per-thread bookkeeping owned by the machine. The coroutine communicates
/// with its machine exclusively through `pending`. Scheduling state the
/// machines' event loops scan (status, pending op kind) lives in the
/// Machine's structure-of-arrays mirrors, not here: this block holds only
/// what the kernel side of the seam needs.
struct ThreadState {
  enum class Status : u8 {
    kRunnable,    // has a pending op awaiting issue
    kWaitMemory,  // op in flight
    kWaitSync,    // blocked on a full/empty tag
    kWaitBarrier,
    kFinished,
  };

  /// Innermost active coroutine: the frame advance() must resume next. Every
  /// OpAwaiter re-points this at suspension, so nested SimTask helpers are
  /// resumed directly without re-walking the await chain.
  std::coroutine_handle<> handle;
  /// Outermost (kernel) frame; owns the whole nest. Cleanup destroys this one
  /// handle — SimTask members in parent frames cascade to child frames.
  std::coroutine_handle<> root;
  Operation pending;
  std::exception_ptr error;

  u32 id = 0;         // dense thread index within the region
  u32 processor = 0;  // assigned by the machine at admission

  // Per-thread statistics (aggregated into machine stats at region end).
  i64 instructions = 0;
  i64 memory_ops = 0;

  /// Resumes the coroutine until its next operation (or completion).
  /// Afterwards `pending.kind` is the new op, or kDone.
  void advance();
};

/// Coroutine return object. The machine takes ownership of the handle at
/// spawn; a SimThread that is never adopted destroys its frame on destruction.
class SimThread {
 public:
  struct promise_type {
    ThreadState* state = nullptr;

    // Frames come from the thread-local pool (frame_pool.hpp): fine-grain
    // kernels spawn enough short-lived threads that malloc'ing every frame
    // is a first-order host cost.
    static void* operator new(std::size_t size) {
      return detail::frame_pool().alloc(size);
    }
    static void operator delete(void* p, std::size_t size) noexcept {
      detail::frame_pool().free(p, size);
    }

    SimThread get_return_object() {
      return SimThread{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept {
      if (state != nullptr) {
        state->pending = Operation{.kind = OpKind::kDone};
      }
      return {};
    }
    void return_void() {}
    void unhandled_exception() {
      if (state != nullptr) {
        state->error = std::current_exception();
        state->pending = Operation{.kind = OpKind::kDone};
      } else {
        throw;  // no machine attached: propagate immediately
      }
    }
  };

  SimThread() = default;
  explicit SimThread(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}
  SimThread(SimThread&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  SimThread& operator=(SimThread&& other) noexcept;
  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;
  ~SimThread();

  /// Transfers the frame to `state` (machine adoption): the promise learns
  /// its ThreadState and this object releases ownership.
  std::coroutine_handle<> bind(ThreadState* state);

 private:
  std::coroutine_handle<promise_type> handle_;
};

/// Awaitable returned by every Ctx operation. The Ctx call has already
/// written the op into `ts->pending`; suspension only records the suspending
/// frame, so advance() resumes the innermost coroutine of a SimTask nest
/// directly. The awaiter stays one pointer because the compiler gives every
/// co_await site its own awaiter slot in the frame: its size multiplies into
/// every kernel frame, and a wide machine resumes thousands of live frames
/// that must fit in the host cache.
struct OpAwaiter {
  ThreadState* ts;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept {
    ts->handle = h;
  }
  i64 await_resume() const noexcept { return ts->pending.result; }
};

/// A nested simulated sub-coroutine: lets kernels factor shared loop shapes
/// (chunk claiming, block scans) into helpers without changing the op stream
/// the machine sees. `co_await some_task(ctx, ...)` runs the helper on the
/// calling thread; suspension and cost accounting flow through the caller's
/// ThreadState, and control returns to the caller via symmetric transfer when
/// the helper completes. The nesting itself is free in simulated time.
///
/// Lifetime rule: a SimTask must be awaited immediately by the coroutine that
/// created it (`co_await helper(...)`), so its frame is owned by an object in
/// the caller's frame for the whole await. Any lambda a helper captures must
/// be a named parameter of the helper (stored in its frame), never a
/// temporary that dies at the call's semicolon.
///
/// Await-immediately rule for ops: a Ctx op posts its Operation into the
/// thread's `pending` slot when it is called, not when it is awaited, so
/// every Ctx call must be the operand of a co_await in the same expression
/// (`co_await ctx.load(a)`). Holding an OpAwaiter, or calling a second op
/// before awaiting the first, overwrites the first op unseen.
class SimTask {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation;
    std::exception_ptr error;
    i64 value = 0;

    // SimTask helpers are created and destroyed once per chunk claim, so
    // their frames recycle through the same pool as kernel threads.
    static void* operator new(std::size_t size) {
      return detail::frame_pool().alloc(size);
    }
    static void operator delete(void* p, std::size_t size) noexcept {
      detail::frame_pool().free(p, size);
    }

    SimTask get_return_object() {
      return SimTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        return h.promise().continuation;
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_value(i64 v) noexcept { value = v; }
    void unhandled_exception() { error = std::current_exception(); }
  };

  SimTask() = default;
  explicit SimTask(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}
  SimTask(SimTask&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  SimTask(const SimTask&) = delete;
  SimTask& operator=(const SimTask&) = delete;
  SimTask& operator=(SimTask&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = other.handle_;
      other.handle_ = nullptr;
    }
    return *this;
  }
  ~SimTask() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;  // symmetric transfer into the helper's body
  }
  i64 await_resume() const {
    if (handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
    return handle_.promise().value;
  }

 private:
  std::coroutine_handle<promise_type> handle_;
};

/// Thread-side handle used inside kernels to issue operations. Each op
/// method writes `pending` at call time and must be awaited at once (see
/// the await-immediately rule above SimTask).
class Ctx {
 public:
  Ctx() = default;
  explicit Ctx(ThreadState* ts) : ts_(ts) {}

  /// Dense id of this thread within its region (0-based spawn order).
  u32 thread_id() const { return ts_->id; }

  OpAwaiter load(Addr a) const {
    return issue({.kind = OpKind::kLoad, .addr = a});
  }
  OpAwaiter store(Addr a, i64 v) const {
    return issue({.kind = OpKind::kStore, .addr = a, .value = v});
  }
  /// MTA readff: wait for full, read, leave full.
  OpAwaiter read_ff(Addr a) const {
    return issue({.kind = OpKind::kReadFF, .addr = a});
  }
  /// MTA readfe: wait for full, read, set empty (consumes the value).
  OpAwaiter read_fe(Addr a) const {
    return issue({.kind = OpKind::kReadFE, .addr = a});
  }
  /// MTA writeef: wait for empty, write, set full.
  OpAwaiter write_ef(Addr a, i64 v) const {
    return issue({.kind = OpKind::kWriteEF, .addr = a, .value = v});
  }
  /// int_fetch_add: atomic add at the bank; returns the old value.
  OpAwaiter fetch_add(Addr a, i64 delta) const {
    return issue({.kind = OpKind::kFetchAdd, .addr = a, .value = delta});
  }
  /// `slots` ALU instructions (each one issue slot / cycle).
  OpAwaiter compute(i64 slots = 1) const {
    return issue({.kind = OpKind::kCompute, .value = slots});
  }
  /// Region-wide barrier over all still-live threads.
  OpAwaiter barrier() const { return issue({.kind = OpKind::kBarrier}); }

 private:
  /// Posts `op` as the thread's pending operation at call time (see the
  /// await-immediately rule above SimTask).
  OpAwaiter issue(const Operation& op) const {
    ts_->pending = op;
    return {ts_};
  }

  ThreadState* ts_ = nullptr;
};

}  // namespace archgraph::sim
