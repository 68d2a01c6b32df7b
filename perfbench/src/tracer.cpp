#include "tracer.hpp"

#include <fstream>

namespace perfbench {

namespace {
thread_local std::uint32_t t_current = 0;
}  // namespace

Tracer::Open Tracer::open() {
  Open o;
  o.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  o.previous = t_current;
  o.parent = t_current != 0 ? t_current : root_.load();
  t_current = o.id;
  return o;
}

void Tracer::close(const Open& open, const char* name, std::uint64_t request,
                   std::int64_t start_ns, std::int64_t end_ns) {
  t_current = open.previous;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = open.id;
  span.parent = open.parent;
  span.request = request;
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
