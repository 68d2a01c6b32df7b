// round_trace: the §5.1 scenario (efficientnet_v2_s, 1000 rounds, 3000
// requests over 50 sim-hours) on the paper's "FLStore-limited" cache — the
// tailored policy at half the tailored working set — with the trace drawn
// over every registered workload type. The working set is twice the cache,
// so eviction, prefetch and the cold tier all do work; the scheduler,
// coalescer, sharding and tracker GC are bypassed.
#include "round_trace.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <string>

#include "backend/object_store_backend.hpp"
#include "cloud/object_store.hpp"
#include "cloud/pricing.hpp"
#include "core/flstore.hpp"
#include "fed/fl_job.hpp"
#include "fed/trace.hpp"
#include "models/model_zoo.hpp"
#include "serve/scheduler.hpp"
#include "sim/calibration.hpp"
#include "stats.hpp"
#include "timed_backend.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fl = flstore;

namespace {

struct Event {
  double time = 0.0;
  bool ingest = true;  ///< ingest sorts before a request at the same time
  std::size_t index = 0;
};

std::vector<fl::fed::WorkloadType> all_workload_types() {
  std::vector<fl::fed::WorkloadType> types;
  for (std::size_t t = 0; t < kWorkloadTypes; ++t) {
    types.push_back(static_cast<fl::fed::WorkloadType>(t));
  }
  return types;
}

/// Everything one replay runs on: the job, a fresh cold tier and store, and
/// the trace merged with the round boundaries into one event list.
struct Setup {
  explicit Setup(const fl::fed::FLJobConfig& job_cfg) : job(job_cfg) {}

  fl::fed::FLJob job;
  fl::ObjectStore store{fl::sim::objstore_link(), fl::PricingCatalog::aws()};
  fl::backend::ObjectStoreBackend raw_cold{store};
  std::optional<TimedBackend> timed_cold;
  std::optional<fl::core::FLStore> flstore;
  double horizon_s = 0.0;
  fl::RoundId max_round = 0;
  std::vector<fl::fed::NonTrainingRequest> trace;
  std::vector<Event> events;

  [[nodiscard]] fl::backend::StorageBackend& cold() {
    if (timed_cold) return *timed_cold;
    return raw_cold;
  }
};

std::unique_ptr<Setup> build_setup(std::uint64_t seed, double scale,
                                   bool traced, Tracer* tracer) {
  fl::fed::FLJobConfig job_cfg;
  job_cfg.model = "efficientnet_v2_s";
  job_cfg.pool_size = 250;
  job_cfg.clients_per_round = 10;
  job_cfg.rounds = std::max<fl::RoundId>(2, std::lround(1000 * scale));
  job_cfg.seed = seed;
  auto s = std::make_unique<Setup>(job_cfg);
  if (traced) s->timed_cold.emplace(s->raw_cold, tracer);

  // FLStore-limited: half of the tailored working set (two rounds of
  // updates + aggregates + metadata windows + prefetch headroom), as fig11.
  const auto working_set =
      (2ULL * static_cast<fl::units::Bytes>(job_cfg.clients_per_round) +
       4ULL) *
      s->job.model().object_bytes;
  fl::core::FLStoreConfig store_cfg;
  store_cfg.policy.mode = fl::core::PolicyMode::kTailored;
  store_cfg.cache_capacity = working_set / 2;
  store_cfg.pool.function_memory =
      fl::function_sizing_for(s->job.model()).memory;
  s->flstore.emplace(store_cfg, s->job, s->cold());

  fl::fed::TraceConfig trace_cfg;
  trace_cfg.duration_s = fl::sim::kTraceDurationS * scale;
  trace_cfg.total_requests = static_cast<std::size_t>(
      std::lround(static_cast<double>(fl::sim::kTraceRequests) * scale));
  trace_cfg.round_interval_s = fl::sim::kRoundIntervalS;
  trace_cfg.workloads = all_workload_types();
  trace_cfg.seed = seed ^ 0x7ACEDULL;
  s->trace = fl::fed::generate_trace(trace_cfg, s->job);
  s->horizon_s = trace_cfg.duration_s;

  const double interval = trace_cfg.round_interval_s;
  s->max_round = std::min<fl::RoundId>(
      s->job.latest_round(),
      static_cast<fl::RoundId>(std::floor(trace_cfg.duration_s / interval)));
  s->events.reserve(static_cast<std::size_t>(s->max_round) + 1 +
                    s->trace.size());
  for (fl::RoundId r = 0; r <= s->max_round; ++r) {
    s->events.push_back({static_cast<double>(r) * interval, true,
                         static_cast<std::size_t>(r)});
  }
  for (std::size_t i = 0; i < s->trace.size(); ++i) {
    s->events.push_back({s->trace[i].arrival_s, false, i});
  }
  std::stable_sort(s->events.begin(), s->events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.ingest && !b.ingest;
                   });
  return s;
}

}  // namespace

RoundTraceReplay replay_round_trace(std::uint64_t seed, double scale,
                                    bool traced, Tracer* tracer) {
  RoundTraceReplay out;
  const auto setup = build_setup(seed, scale, traced, tracer);
  const auto& job = setup->job;
  auto& flstore = *setup->flstore;
  const auto& trace = setup->trace;
  const auto& events = setup->events;
  const auto slo_s = fl::serve::SchedulerConfig{}.slo_s;
  out.latency_s.reserve(trace.size());

  Digest digest;
  double serving_usd = 0.0;
  out.slice_ns.reserve(events.size() / kSliceEvents + 1);
  const auto loop_start = now_ns();
  auto slice_start = loop_start;
  {
    std::optional<ScopedSpan> replay_span;
    if (traced) replay_span.emplace(tracer, "round_trace.replay", seed);
    for (std::size_t e = 0; e < events.size(); ++e) {
      if (e > 0 && e % kSliceEvents == 0) {
        const auto t = now_ns();
        out.slice_ns.push_back(t - slice_start);
        slice_start = t;
      }
      const auto& ev = events[e];
      if (ev.ingest) {
        const auto round = static_cast<fl::RoundId>(ev.index);
        if (!traced) {
          flstore.ingest_round(job.make_round(round), ev.time);
          continue;
        }
        std::optional<fl::fed::RoundRecord> record;
        {
          ScopedSpan span(tracer, "fed.make_round", ev.index);
          record.emplace(job.make_round(round));
          out.make_round_ns += span.stop();
        }
        ScopedSpan span(tracer, "core.ingest_round", ev.index);
        flstore.ingest_round(*record, ev.time);
        out.ingest_ns += span.stop();
        continue;
      }
      const auto& req = trace[ev.index];
      const auto cls = fl::fed::class_index(fl::fed::policy_class_for(req.type));
      const auto type = static_cast<std::size_t>(req.type);
      ++out.attempted;
      std::optional<ScopedSpan> span;
      if (traced) span.emplace(tracer, "core.serve", req.id);
      try {
        const auto res = flstore.serve(req, ev.time);
        if (span) {
          const auto ns = span->stop();
          out.serve_ns += ns;
          out.serve_us_by_class[cls].push_back(static_cast<double>(ns) * 1e-3);
          out.serve_ns_by_type[type] += ns;
          ++out.serves_by_type[type];
        }
        digest.add_request(req.id, type, req.round, res.latency_s,
                           res.cost_usd, res.hits, res.misses);
        out.latency_s.push_back(res.latency_s);
        if (res.latency_s <= slo_s[cls]) ++out.within_slo;
        serving_usd += res.cost_usd;
        out.comm_s[cls] += res.comm_s;
        out.comp_s[cls] += res.comp_s;
        ++out.completed[cls];
      } catch (const std::exception&) {
        // A throwing request is counted, never dropped; the replay goes on.
        if (span) out.serve_ns += span->stop();
        ++out.failed;
        digest.add_request(req.id, type, req.round, -1.0, 0.0, 0, 0);
      }
    }
  }
  const auto loop_end = now_ns();
  out.slice_ns.push_back(loop_end - slice_start);
  out.wall_s = static_cast<double>(loop_end - loop_start) * 1e-9;

  out.digest = digest.value();
  const double horizon = setup->horizon_s;
  out.usd_per_round = (serving_usd + flstore.infrastructure_cost(horizon) +
                       setup->cold().idle_cost(horizon)) /
                      static_cast<double>(setup->max_round + 1);
  out.tracker_tracked = flstore.tracker().total_tracked();
  out.cache_hits = flstore.engine().hits();
  out.cache_misses = flstore.engine().misses();
  out.forced_evictions = flstore.engine().forced_evictions();
  out.backend = setup->raw_cold.stats();
  if (setup->timed_cold) out.backend_ns = setup->timed_cold->wall_ns();
  return out;
}

namespace {

double share(std::int64_t part_ns, double whole_s) {
  return whole_s > 0.0 ? static_cast<double>(part_ns) * 1e-9 / whole_s : 0.0;
}

}  // namespace

Result run_round_trace(const RunOptions& options) {
  Result result;
  Tracer tracer;
  SetupTimer setups;
  // Peak memory through the first replay: later replays reuse the freed
  // heap, so the first is the one a single-shot user pays for.
  double rss_mb = 0.0;
  std::vector<RoundTraceReplay> untraced;
  std::vector<RoundTraceReplay> traced;
  const auto start = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  // Untraced replays fill the timed phase; a traced run alternates traced
  // and untraced replays so trace_overhead compares like with like.
  while (untraced.empty() || (options.trace && traced.empty()) ||
         elapsed_s() < options.seconds) {
    const bool trace_this =
        options.trace && traced.size() < untraced.size();
    setups.sample([&] { (void)build_setup(options.seed, 1.0, false, nullptr); });
    auto replay = replay_round_trace(options.seed, 1.0, trace_this,
                                     trace_this ? &tracer : nullptr);
    (trace_this ? traced : untraced).push_back(std::move(replay));
    if (untraced.size() == 1 && traced.empty()) rss_mb = peak_rss_mb();
  }

  const auto& first = untraced.front();
  std::vector<double> walls;
  // Other processes on a shared machine only ever slow a slice down, so
  // each slice's fastest time over the replays is the steadiest estimate
  // of what the program itself costs.
  std::vector<std::int64_t> fastest = first.slice_ns;
  for (const auto& r : untraced) {
    walls.push_back(r.wall_s);
    for (std::size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], r.slice_ns[i]);
    }
  }
  std::int64_t best_ns = 0;
  for (const auto ns : fastest) best_ns += ns;
  bool same_digest = true;
  for (const auto* set : {&untraced, &traced}) {
    for (const auto& r : *set) {
      same_digest = same_digest && r.digest == first.digest;
      result.attempted += r.attempted;
      result.failed += r.failed;
    }
  }
  result.check(same_digest,
               "per-request digest differs between replays of one seed "
               "(traced and untraced replays included)");

  result.set("ops_per_s", static_cast<double>(first.attempted) /
                              (static_cast<double>(best_ns) * 1e-9));
  result.set("setup_s", setups.median_s());
  result.set("peak_rss_mb", rss_mb);
  result.note(format("replays: %zu untraced, %zu traced; %llu of %llu "
                     "requests failed per replay (hyperparam_tracking on "
                     "round 0, a known defect)",
                     untraced.size(), traced.size(),
                     static_cast<unsigned long long>(first.failed),
                     static_cast<unsigned long long>(first.attempted)));
  if (!options.trace) return result;

  // Per-layer numbers from the traced replays; modelled counters repeat
  // exactly per seed, so any replay gives them.
  double traced_wall = 0.0;
  std::int64_t make_round_ns = 0, ingest_ns = 0, serve_ns = 0, backend_ns = 0;
  std::array<std::vector<double>, 4> serve_us;
  std::array<std::int64_t, kWorkloadTypes> type_ns{};
  std::array<std::uint64_t, kWorkloadTypes> type_n{};
  std::vector<double> traced_walls;
  for (const auto& r : traced) {
    traced_wall += r.wall_s;
    traced_walls.push_back(r.wall_s);
    make_round_ns += r.make_round_ns;
    ingest_ns += r.ingest_ns;
    serve_ns += r.serve_ns;
    backend_ns += r.backend_ns;
    for (std::size_t c = 0; c < 4; ++c) {
      serve_us[c].insert(serve_us[c].end(), r.serve_us_by_class[c].begin(),
                         r.serve_us_by_class[c].end());
    }
    for (std::size_t t = 0; t < kWorkloadTypes; ++t) {
      type_ns[t] += r.serve_ns_by_type[t];
      type_n[t] += r.serves_by_type[t];
    }
  }
  result.set("fed.make_round_share", share(make_round_ns, traced_wall));
  result.set("core.ingest_round_share", share(ingest_ns, traced_wall));
  result.set("core.serve_share", share(serve_ns, traced_wall));
  result.set("backend.wall_share", share(backend_ns, traced_wall));
  for (std::size_t c = 0; c < 4; ++c) {
    result.set(std::string("core.serve_p50_us.") + class_name(c),
               percentile(serve_us[c], 50'000));
    result.set(std::string("core.serve_p99_us.") + class_name(c),
               percentile(serve_us[c], 99'000));
    const double done = static_cast<double>(first.completed[c]);
    if (done > 0) {
      result.set(std::string("serve.comm_s_mean.") + class_name(c),
                 first.comm_s[c] / done);
      result.set(std::string("serve.comp_s_mean.") + class_name(c),
                 first.comp_s[c] / done);
    }
  }
  for (std::size_t t = 0; t < kWorkloadTypes; ++t) {
    if (type_n[t] == 0) continue;
    result.set(std::string("workloads.") +
                   fl::fed::to_string(static_cast<fl::fed::WorkloadType>(t)) +
                   ".serve_ms",
               static_cast<double>(type_ns[t]) * 1e-6 /
                   static_cast<double>(type_n[t]));
  }
  result.set("core.tracker_tracked_max",
             static_cast<double>(first.tracker_tracked));
  const double lookups =
      static_cast<double>(first.cache_hits + first.cache_misses);
  result.set("core.hit_rate",
             lookups > 0 ? static_cast<double>(first.cache_hits) / lookups
                         : 0.0);
  result.set("core.misses", static_cast<double>(first.cache_misses));
  result.set("core.forced_evictions",
             static_cast<double>(first.forced_evictions));
  auto latencies = first.latency_s;
  const auto n = latencies.size();
  const auto top = highest_percentile(n);
  result.set("sim_p50_s", percentile(latencies, 50'000));
  result.set("sim_p99_s", percentile(latencies, 99'000));
  result.note(format("modelled latency over %zu completed requests: p%g = "
                     "%.6f s is the highest percentile with >= 10 samples "
                     "beyond it",
                     n, static_cast<double>(top) / 1000.0,
                     percentile(latencies, top)));
  result.set("usd_per_round", first.usd_per_round);
  result.set("failed_share", static_cast<double>(first.failed) /
                                 static_cast<double>(first.attempted));
  result.set_backend_stats(first.backend);
  result.set("slo_attainment",
             static_cast<double>(first.within_slo) /
                 static_cast<double>(first.attempted));
  result.set("trace_overhead", median(traced_walls) / median(walls) - 1.0);
  result.check(tracer.write_jsonl(options.spans_path),
               "could not write spans to " + options.spans_path);
  result.note(format("spans kept: %zu, dropped over the cap: %llu",
                     tracer.size(),
                     static_cast<unsigned long long>(tracer.dropped())));
  return result;
}

}  // namespace perfbench
