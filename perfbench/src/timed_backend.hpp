// TimedBackend — the benchmark's wall-clock decorator over a cold tier.
//
// Forwards every StorageBackend virtual unchanged to the wrapped backend
// and adds the wall time of each data-plane call (put, put_batch, get,
// remove, flush, flush_window) to an atomic total, recording one span per
// call when given a tracer. Installed in traced runs only; op counts come
// from the wrapped backend's own stats() in both runs. The totals are
// atomic because ShardedStore drives one shared backend from tenant
// timelines on several pool threads at once.
#pragma once

#include <atomic>
#include <cstdint>

#include "backend/storage_backend.hpp"
#include "tracer.hpp"

namespace perfbench {

class TimedBackend final : public flstore::backend::StorageBackend {
 public:
  /// `inner` must outlive the decorator; `tracer` may be null.
  TimedBackend(flstore::backend::StorageBackend& inner, Tracer* tracer)
      : inner_(&inner), tracer_(tracer) {}

  flstore::backend::PutResult put(const std::string& name, flstore::Blob blob,
                                  flstore::units::Bytes logical_bytes,
                                  double now) override;
  flstore::backend::BatchPutResult put_batch(
      std::vector<flstore::backend::PutRequest> batch, double now) override;
  flstore::backend::GetResult get(const std::string& name,
                                  double now) override;
  bool remove(const std::string& name, double now) override;
  FlushResult flush(double now) override;
  FlushResult flush_window(double now, double dirty_before,
                           std::size_t max_objects) override;

  [[nodiscard]] DirtyWindow dirty_window() const override {
    return inner_->dirty_window();
  }
  CrashResult crash(double now) override { return inner_->crash(now); }
  [[nodiscard]] bool contains(const std::string& name) const override {
    return inner_->contains(name);
  }
  [[nodiscard]] flstore::units::Bytes stored_logical_bytes() const override {
    return inner_->stored_logical_bytes();
  }
  [[nodiscard]] flstore::units::Bytes capacity_bytes() const override {
    return inner_->capacity_bytes();
  }
  [[nodiscard]] double idle_cost(double seconds) const override {
    return inner_->idle_cost(seconds);
  }
  bool set_throttle(const flstore::backend::Throttle::Config& config,
                    double now) override {
    return inner_->set_throttle(config, now);
  }
  [[nodiscard]] flstore::backend::BackendKind kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] flstore::backend::OpStats stats() const override {
    return inner_->stats();
  }

  /// Wall time spent inside the wrapped backend's data-plane calls, summed
  /// over every calling thread.
  [[nodiscard]] std::int64_t wall_ns() const noexcept {
    return wall_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  void book(ScopedSpan& span) {
    wall_ns_.fetch_add(span.stop(), std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }

  flstore::backend::StorageBackend* inner_;
  Tracer* tracer_;
  std::atomic<std::int64_t> wall_ns_{0};
  std::atomic<std::uint64_t> calls_{0};
};

}  // namespace perfbench
