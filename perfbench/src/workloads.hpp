// The benchmark's workloads and the metric schema they report.
//
// Every workload reports the same metric names, so one run of any workload
// prints every end-to-end metric (untraced) or every per-layer metric
// (traced). A layer a workload bypasses reports 0 for its per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "backend/storage_backend.hpp"
#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< traced run: per-layer metrics and spans
  std::string spans_path;  ///< where a traced run writes its spans
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// End-to-end metrics (untraced runs), in output order.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics (traced runs), in output order.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// One workload run: correctness, op accounting and the measured metrics.
struct Result {
  bool correct = true;
  std::vector<std::string> failures;  ///< failed correctness checks
  std::vector<std::string> notes;     ///< human-readable context lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  /// Record a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value) { values[name] = value; }
  void note(const std::string& line) { notes.push_back(line); }
  /// The cold tier's own op ledger as the backend.* counters.
  void set_backend_stats(const flstore::backend::OpStats& stats);
};

/// "P1".."P4" for a policy-class index.
[[nodiscard]] const char* class_name(std::size_t class_index);

[[nodiscard]] Result run_round_trace(const RunOptions& options);
[[nodiscard]] Result run_metadata_stream(const RunOptions& options);
[[nodiscard]] Result run_hot_skewed(const RunOptions& options);

/// Times set-ups for setup_s: a few before every replay or pass, each torn
/// down before the next, so the samples spread over the whole run instead of
/// catching one moment of a shared machine. setup_s is their median.
class SetupTimer {
 public:
  static constexpr int kPerPass = 3;

  template <class Build>
  void sample(Build&& build) {
    for (int i = 0; i < kPerPass; ++i) {
      const auto start = now_ns();
      build();
      samples_.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    }
  }
  [[nodiscard]] double median_s() const { return median(samples_); }

 private:
  std::vector<double> samples_;
};

/// printf-style formatting for notes and check messages.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Peak resident memory of this process in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
