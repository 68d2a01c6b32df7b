// perfbench — one benchmark run of one workload.
//
//   perfbench --workload <round_trace|metadata_stream|hot_skewed> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// Prints context lines, one "metric <name> <value> <unit>" line per metric,
// any failed correctness check, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exits 0 only when every correctness check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed must be an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 60.0) {
        usage("--seconds must be in (0, 60]");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.spans_path.empty()) {
    options.spans_path = "perfbench-spans-" + workload + "-" +
                         std::to_string(options.seed) + ".jsonl";
  }

  perfbench::Result result;
  try {
    if (workload == "round_trace") {
      result = perfbench::run_round_trace(options);
    } else if (workload == "metadata_stream") {
      result = perfbench::run_metadata_stream(options);
    } else if (workload == "hot_skewed") {
      result = perfbench::run_hot_skewed(options);
    } else {
      usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    // Nothing the workloads let escape is expected: report it, print no
    // result line and fail the run.
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& line : result.notes) std::printf("note %s\n", line.c_str());

  const auto& specs = options.trace ? perfbench::per_layer_metrics()
                                    : perfbench::end_to_end_metrics();
  std::string json_metrics;
  for (const auto& spec : specs) {
    result.check(perfbench::valid_metric_name(spec.name),
                 "invalid metric name " + spec.name);
    const auto it = result.values.find(spec.name);
    // Per-layer metrics of layers the workload bypasses read 0; every
    // end-to-end metric must be measured.
    if (it == result.values.end() && !options.trace) {
      result.check(false, "end-to-end metric not measured: " + spec.name);
    }
    double value = it == result.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      result.check(false, "non-finite value for " + spec.name);
      value = 0.0;
    }
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    std::printf("metric %s %s %s\n", spec.name.c_str(), number,
                spec.unit.c_str());
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += "\"" + spec.name + "\": {\"value\": " + number +
                    ", \"unit\": \"" + json_escape(spec.unit) + "\"}";
  }
  for (const auto& [name, value] : result.values) {
    const auto known = [&name](const std::vector<perfbench::MetricSpec>& l) {
      return std::any_of(l.begin(), l.end(),
                         [&name](const auto& m) { return m.name == name; });
    };
    result.check(known(perfbench::end_to_end_metrics()) ||
                     known(perfbench::per_layer_metrics()),
                 "measured metric missing from the schema: " + name);
  }
  for (const auto& failure : result.failures) {
    std::printf("check FAILED: %s\n", failure.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), json_metrics.c_str());
  return result.correct ? 0 : 1;
}
