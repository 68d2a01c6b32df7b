#include "timed_backend.hpp"

#include <utility>

namespace perfbench {

namespace be = flstore::backend;

be::PutResult TimedBackend::put(const std::string& name, flstore::Blob blob,
                                flstore::units::Bytes logical_bytes,
                                double now) {
  ScopedSpan span(tracer_, "backend.put");
  auto result = inner_->put(name, std::move(blob), logical_bytes, now);
  book(span);
  return result;
}

be::BatchPutResult TimedBackend::put_batch(std::vector<be::PutRequest> batch,
                                           double now) {
  ScopedSpan span(tracer_, "backend.put_batch");
  auto result = inner_->put_batch(std::move(batch), now);
  book(span);
  return result;
}

be::GetResult TimedBackend::get(const std::string& name, double now) {
  ScopedSpan span(tracer_, "backend.get");
  auto result = inner_->get(name, now);
  book(span);
  return result;
}

bool TimedBackend::remove(const std::string& name, double now) {
  ScopedSpan span(tracer_, "backend.remove");
  const bool removed = inner_->remove(name, now);
  book(span);
  return removed;
}

be::StorageBackend::FlushResult TimedBackend::flush(double now) {
  ScopedSpan span(tracer_, "backend.flush");
  auto result = inner_->flush(now);
  book(span);
  return result;
}

be::StorageBackend::FlushResult TimedBackend::flush_window(
    double now, double dirty_before, std::size_t max_objects) {
  ScopedSpan span(tracer_, "backend.flush_window");
  auto result = inner_->flush_window(now, dirty_before, max_objects);
  book(span);
  return result;
}

}  // namespace perfbench
