// round_trace: one tenant driven call by call — sim::run_trace's open-loop
// loop inlined so each make_round / ingest_round / serve call can be timed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "backend/storage_backend.hpp"
#include "fed/request.hpp"
#include "tracer.hpp"

namespace perfbench {

inline constexpr std::size_t kWorkloadTypes =
    static_cast<std::size_t>(flstore::fed::WorkloadType::kHyperparamTracking) +
    1;

inline constexpr std::size_t kSliceEvents = 64;

/// One replay of the §5.1 trace on a freshly built job and store.
struct RoundTraceReplay {
  double wall_s = 0.0;   ///< the event loop
  /// Wall time of each consecutive slice of kSliceEvents events. Every
  /// replay of one seed runs the same slices, so run_round_trace can take
  /// each slice's fastest time across replays.
  std::vector<std::int64_t> slice_ns;
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< requests whose serve threw
  std::vector<double> latency_s;  ///< modelled, completed requests
  std::uint64_t within_slo = 0;   ///< completed within the class SLO
  double usd_per_round = 0.0;
  std::size_t tracker_tracked = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t forced_evictions = 0;
  flstore::backend::OpStats backend;
  std::array<double, 4> comm_s{};  ///< per class sums
  std::array<double, 4> comp_s{};
  std::array<std::uint64_t, 4> completed{};

  // Per-call wall time (traced replays only).
  std::int64_t make_round_ns = 0;
  std::int64_t ingest_ns = 0;
  std::int64_t serve_ns = 0;
  std::int64_t backend_ns = 0;
  std::array<std::vector<double>, 4> serve_us_by_class;
  std::array<std::int64_t, kWorkloadTypes> serve_ns_by_type{};
  std::array<std::uint64_t, kWorkloadTypes> serves_by_type{};
};

/// Replay the round_trace workload for `seed`. `scale` shrinks rounds,
/// duration and request count together (tests use small scales). A traced
/// replay times every call, wraps the cold tier in a TimedBackend and, with
/// a tracer, records a span per call.
[[nodiscard]] RoundTraceReplay replay_round_trace(std::uint64_t seed,
                                                  double scale, bool traced,
                                                  Tracer* tracer);

}  // namespace perfbench
