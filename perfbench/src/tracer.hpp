// Wall-clock spans recorded by the benchmark around its own calls into the
// library (traced runs only). Spans stay in memory and are written out as
// JSON lines when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: a layer-qualified call name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = no parent
  std::uint64_t request = 0;  ///< request or op id; 0 = none
};

/// Thread-safe span store. Each thread tracks its innermost open span, so a
/// span opened inside another on the same thread gets it as parent; spans
/// opened on threads with no open span fall back to the root span.
class Tracer {
 public:
  /// Spans beyond this many are counted in dropped() instead of kept.
  static constexpr std::size_t kMaxSpans = 1'000'000;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Reserve an id for a span that starts now on the calling thread and make
  /// it the thread's current parent; close() restores the previous one.
  struct Open {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint32_t previous = 0;  ///< the thread's parent before this span
  };
  [[nodiscard]] Open open();
  /// Record the span opened by `open` and restore the thread's parent.
  void close(const Open& open, const char* name, std::uint64_t request,
             std::int64_t start_ns, std::int64_t end_ns);

  /// Spans opened on threads with no open span get `id` as parent.
  void set_root(std::uint32_t id) { root_.store(id); }

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const;
  /// Write every kept span as one JSON object per line. Returns false when
  /// the file cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t dropped_ = 0;  // guarded by mu_
  std::atomic<std::uint32_t> next_id_{1};
  std::atomic<std::uint32_t> root_{0};
};

/// Times one call. With a null tracer it only measures; with a tracer it
/// also records a span named `name` (a string literal).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer), name_(name), request_(request) {
    if (tracer_ != nullptr) open_ = tracer_->open();
    start_ns_ = now_ns();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { (void)stop(); }

  /// End the span (idempotent); returns its duration in nanoseconds.
  std::int64_t stop() {
    if (!stopped_) {
      end_ns_ = now_ns();
      stopped_ = true;
      if (tracer_ != nullptr) {
        tracer_->close(open_, name_, request_, start_ns_, end_ns_);
      }
    }
    return end_ns_ - start_ns_;
  }

  [[nodiscard]] std::uint32_t id() const noexcept { return open_.id; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t request_;
  Tracer::Open open_;
  std::int64_t start_ns_ = 0;
  std::int64_t end_ns_ = 0;
  bool stopped_ = false;
};

}  // namespace perfbench
