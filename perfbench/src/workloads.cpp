#include "workloads.hpp"

#include <sys/resource.h>

#include <array>
#include <cstdarg>
#include <cstdio>

#include "fed/request.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    failures.push_back(what);
  }
}

void Result::set_backend_stats(const flstore::backend::OpStats& stats) {
  set("backend.gets", static_cast<double>(stats.gets));
  set("backend.puts", static_cast<double>(stats.puts));
  set("backend.batches", static_cast<double>(stats.batches));
  set("backend.bytes_read", static_cast<double>(stats.bytes_read));
  set("backend.fees_usd", stats.fees_usd);
  set("backend.throttle_wait_s", stats.throttle_wait_s);
}

const char* class_name(std::size_t class_index) {
  return flstore::fed::to_string(
      static_cast<flstore::fed::PolicyClass>(class_index));
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"ops_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"fed.make_round_share", "ratio"},
        {"fed.stream_drain_s", "s"},
        {"core.ingest_round_share", "ratio"},
        {"core.serve_share", "ratio"},
    };
    for (std::size_t c = 0; c < flstore::fed::kPolicyClassCount; ++c) {
      s.push_back({std::string("core.serve_p50_us.") + class_name(c), "us"});
    }
    for (std::size_t c = 0; c < flstore::fed::kPolicyClassCount; ++c) {
      s.push_back({std::string("core.serve_p99_us.") + class_name(c), "us"});
    }
    s.insert(s.end(), {{"core.tracker_tracked_max", "count"},
                       {"core.hit_rate", "ratio"},
                       {"core.misses", "count"},
                       {"core.forced_evictions", "count"}});
    for (int t = 0; t <= static_cast<int>(
                             flstore::fed::WorkloadType::kHyperparamTracking);
         ++t) {
      s.push_back({std::string("workloads.") +
                       flstore::fed::to_string(
                           static_cast<flstore::fed::WorkloadType>(t)) +
                       ".serve_ms",
                   "ms"});
    }
    s.insert(s.end(), {{"backend.wall_share", "ratio"},
                       {"backend.gets", "count"},
                       {"backend.puts", "count"},
                       {"backend.batches", "count"},
                       {"backend.bytes_read", "B"},
                       {"backend.fees_usd", "USD"},
                       {"backend.throttle_wait_s", "s"}});
    for (const char* field : {"queue_s_mean", "comm_s_mean", "comp_s_mean"}) {
      for (std::size_t c = 0; c < flstore::fed::kPolicyClassCount; ++c) {
        s.push_back({std::string("serve.") + field + "." + class_name(c), "s"});
      }
    }
    s.insert(s.end(), {{"serve.sched_rejected", "count"},
                       {"serve.sched_peak_queued", "count"},
                       {"serve.coalescer_join_ratio", "ratio"},
                       {"serve.hot_evict_p99_us", "us"},
                       {"serve.hot_sync_ms", "ms"},
                       {"obs.hot_drains", "count"},
                       {"obs.hot_accesses_per_drain", "count"},
                       {"obs.hot_hit_rate", "ratio"},
                       {"obs.hot_put_reject_share", "ratio"},
                       {"trace_overhead", "ratio"}});
    // Whole-request numbers that exist on only some workloads, so they
    // cannot be end-to-end metrics (those must be measured on every one).
    s.insert(s.end(), {{"sim_p50_s", "s"},
                       {"sim_p99_s", "s"},
                       {"usd_per_round", "USD"},
                       {"slo_attainment", "ratio"},
                       {"failed_share", "ratio"},
                       {"get_p50_us", "us"},
                       {"get_p99_us", "us"},
                       {"put_p50_us", "us"},
                       {"put_p99_us", "us"}});
    return s;
  }();
  return specs;
}

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
