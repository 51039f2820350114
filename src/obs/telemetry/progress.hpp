// Live progress for long-running host campaigns: done/total, cells/sec and
// an ETA on stderr while a sweep executes. Two rendering modes:
//
//   * TTY — a single line redrawn in place (carriage return + erase-to-end),
//     rate-limited so a fast grid does not spend its time repainting;
//   * plain — when stderr is not a terminal (CI logs, 2>file), one ordinary
//     newline-terminated line per update, no ANSI escapes at all, rate-
//     limited harder so captured logs stay small.
//
// The reporter writes only to the stream it was given (stderr in the CLI) —
// never to the result path. The sweep executor advances it as each cell
// finishes (HostTelemetry::progress), under the lock that serializes its
// in-plan-order result callbacks, so progress output cannot interleave with
// the emit-ordered JSONL stream even under --jobs N, and the count tracks
// completions even when the plan-order prefix finishes late.
//
// eta_seconds() is the one piece of arithmetic, exposed for direct testing
// (zero-cell plans, the single-cell edge, mid-plan estimates).
#pragma once

#include <iosfwd>
#include <string>

#include "common/types.hpp"

namespace archgraph::obs::telemetry {

/// Estimated seconds remaining after `done` of `total` units took `elapsed`
/// seconds: elapsed/done * (total - done). Edge cases: a plan with nothing
/// left (done >= total, including the zero-cell plan) is 0; before the first
/// completion (done == 0 with work remaining) the rate is unknown — returns
/// -1 so callers print "eta ?" instead of a fabricated number.
double eta_seconds(usize done, usize total, double elapsed);

/// "3m42s" / "42s" / "0.4s" — the compact duration form progress lines use.
std::string format_duration(double seconds);

struct ProgressOptions {
  /// Force plain mode even on a TTY (the CLI's --no-progress keeps a final
  /// summary but callers may also want plain lines for tee'd logs).
  bool plain = false;
  /// Minimum seconds between repaints in TTY mode.
  double tty_interval_s = 0.1;
  /// Minimum seconds between lines in plain mode.
  double plain_interval_s = 1.0;
};

/// Renders and rate-limits progress updates. Not thread-safe by design: the
/// sweep executor already advances it under its emit lock, and adding a
/// second lock here would suggest the reporter may be driven from racing
/// threads (it must not be — interleaved partial lines would corrupt a TTY).
class ProgressReporter {
 public:
  /// `is_tty`: whether `out` is an interactive terminal (callers pass
  /// isatty(fileno(stderr)); the reporter itself never probes file
  /// descriptors, keeping it testable against a stringstream).
  ProgressReporter(std::ostream& out, usize total, bool is_tty,
                   ProgressOptions options = {});
  ~ProgressReporter();

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Marks one more unit done (label = e.g. the cell's run ID, shown on the
  /// TTY line). Repaints only when the rate limit allows or the plan just
  /// finished — the final state is always rendered.
  void advance(const std::string& label, double elapsed_seconds);

  /// Clears the TTY line (so subsequent stderr output starts clean) or, in
  /// plain mode, emits the final line if the last advance was suppressed by
  /// the rate limit. Idempotent; the destructor calls it.
  void finish();

  usize done() const { return done_; }

  /// The rendered progress text (no carriage return / newline framing):
  /// "[12/48] 25% 3.4 cells/sec eta 11s run_id". Static so tests cover the
  /// exact format without a reporter.
  static std::string render(usize done, usize total, double elapsed_seconds,
                            const std::string& label);

 private:
  void paint(const std::string& label, double elapsed_seconds, bool final);

  std::ostream& out_;
  usize total_;
  bool tty_;
  ProgressOptions options_;
  usize done_ = 0;
  double last_paint_s_ = -1.0;  // elapsed at the last repaint; -1 = never
  usize last_painted_done_ = 0;
  bool finished_ = false;
};

/// True when `fd` (POSIX file descriptor, e.g. fileno(stderr)) is an
/// interactive terminal; false on platforms without isatty.
bool fd_is_tty(int fd);

}  // namespace archgraph::obs::telemetry
