#include "sim/task.hpp"

#include "common/check.hpp"

namespace archgraph::sim {

void ThreadState::advance() {
  AG_DCHECK(handle && !handle.done(), "advancing a finished thread");
  // NOTE: `pending` must stay intact across the resume — the suspended
  // OpAwaiter reads pending.result as the value of its co_await. The resume
  // then either calls the next Ctx op (which overwrites `pending`) and
  // suspends on it, or runs to completion (final_suspend sets kDone).
  handle.resume();
  AG_DCHECK(pending.kind != OpKind::kNone, "kernel suspended without an op");
}

SimThread& SimThread::operator=(SimThread&& other) noexcept {
  if (this != &other) {
    if (handle_) {
      handle_.destroy();
    }
    handle_ = other.handle_;
    other.handle_ = nullptr;
  }
  return *this;
}

SimThread::~SimThread() {
  if (handle_) {
    handle_.destroy();
  }
}

std::coroutine_handle<> SimThread::bind(ThreadState* state) {
  AG_CHECK(handle_ != nullptr, "binding an empty SimThread");
  handle_.promise().state = state;
  std::coroutine_handle<> out = handle_;
  handle_ = nullptr;
  return out;
}

}  // namespace archgraph::sim
