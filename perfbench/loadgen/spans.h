// Spans recorded by the benchmark around its calls into each layer.
//
// Each thread owns one SpanLog (no locking on the hot path); the load
// generator merges them after the run, derives the per-layer metrics from
// span durations, and writes every span out as JSON lines. Spans live only
// in the load generator: nothing under src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::uint64_t request = 0;  // shared by every span of one operation
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::uint64_t thread = 0) : next_id_(thread << 40) {}

  bool enabled = false;

  // Opens a span and returns its id (0 while disabled).
  std::uint64_t open(const char* name, std::uint64_t request, std::uint64_t parent) {
    if (!enabled) return 0;
    spans_.push_back(Span{name, request, ++next_id_, parent, now_ns(), 0});
    open_.push_back(spans_.size() - 1);
    return next_id_;
  }
  // Closes the innermost open span.
  void close() {
    if (open_.empty()) return;
    spans_[open_.back()].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// RAII wrapper: the span closes when the scope ends, on exceptions too.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t request, std::uint64_t parent = 0)
      : log_(log), id_(log.open(name, request, parent)) {}
  ~ScopedSpan() {
    if (id_ != 0) log_.close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

}  // namespace perfbench
