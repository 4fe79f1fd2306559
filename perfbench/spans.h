// The benchmark's own spans: recorded around calls into the program's
// public API during the traced run, kept in memory, written out at the
// end. Nothing here instruments the program itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  /// Index into the log's name table.
  uint32_t name = 0;
  /// Recording thread (0-based, in order of first use).
  uint32_t thread = 0;
  /// Index of the parent span in the same thread's buffer, -1 for a root.
  int32_t parent = -1;
  uint64_t query = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-name totals over a span tree.
struct LayerTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  /// Duration minus the part of the interval child spans cover.
  int64_t self_ns = 0;
};

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span). `spans` must be one thread's buffer,
/// parents before children.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// A thread-aware in-memory span log. Begin/End nest per thread; a span's
/// parent is the innermost span open on the same thread.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Interns `name`; call before recording starts.
  uint32_t Name(const std::string& name);

  /// Opens a span under the innermost span open on this thread.
  void Begin(uint32_t name, uint64_t query);
  /// Closes the innermost open span on this thread. A coalescible span
  /// that has no children and directly follows a childless sibling of the
  /// same name is merged into it, so the log stays small when the event
  /// loop fires many events that call nothing the benchmark traces.
  void End(bool coalescible = false);

  /// Totals per span name, over every thread.
  std::map<std::string, LayerTotals> Totals() const;
  size_t size() const;

  /// Writes at most `limit` spans per thread as JSON.
  std::string ToJson(size_t limit) const;

 private:
  struct ThreadBuf {
    uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<int32_t> open;
    std::vector<char> coalesce;
  };
  ThreadBuf* Buf();

  /// Identifies this log in the per-thread buffer cache.
  const uint64_t id_;
  std::vector<std::string> names_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span: no-op when `log` is null, which is how the untraced run
/// calls the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint32_t name, uint64_t query = 0,
             bool coalescible = false)
      : log_(log), coalescible_(coalescible) {
    if (log_) log_->Begin(name, query);
  }
  ~ScopedSpan() {
    if (log_) log_->End(coalescible_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  bool coalescible_;
};

}  // namespace perfbench
