// metadata_stream: queued open loop in simulated time through
// ShardedStore::serve_open_loop_stream. Two tenants weighted 70/30
// (resnet18 and efficientnet_v2_s jobs), 4 hash-routed shards each with
// coalescing on, the default SLO scheduler, unbounded caches. An
// ArrivalStream over a 1M-client Zipf population offers 4 sim-hours of the
// paper's P3/P4 metadata requests (reputation, scheduling_perf) with a 2.5x
// surge over one tenth of the horizon.
//
// The requests are cheap, so request bookkeeping and the serving plane do
// most of the wall-clock work. hyperparam_tracking stays out of the mix: on
// round 0 it throws, and the exception unwinds the whole stream run (a
// known defect; round_trace carries the type and counts its failures).
#include <algorithm>
#include <array>
#include <exception>
#include <memory>
#include <optional>
#include <string>

#include "backend/object_store_backend.hpp"
#include "cloud/object_store.hpp"
#include "cloud/pricing.hpp"
#include "fed/fl_job.hpp"
#include "serve/load_generator.hpp"
#include "serve/sharded_store.hpp"
#include "sim/calibration.hpp"
#include "stats.hpp"
#include "timed_backend.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fl = flstore;

namespace {

constexpr double kHour = 3600.0;
constexpr double kHorizonS = 4.0 * kHour;
constexpr double kRoundIntervalS = 180.0;
/// Base offered rate. The base load runs below the 8 shards' modelled
/// capacity and the 2.5x surge above it, so the surge builds real queues,
/// and around the surge the busiest shards hold about 4096 requests of the
/// last sim-hour, the request tracker's garbage-collection threshold, where
/// collection runs on every request.
constexpr double kBaseQps = 6.0;
/// The tenants' jobs are fixed; the seed drives the traffic. How much the
/// surge queues depends strongly on the jobs: with these two the backlog
/// peaks at about 350-390 requests per class queue for every traffic seed
/// tried, well under the scheduler's default 1024-request admission limit,
/// so nothing is rejected; other job seeds ranged from 130 to rejecting
/// thousands of requests.
constexpr std::array<std::uint64_t, 2> kJobSeeds = {7, 8};
constexpr int kShardsPerTenant = 4;
constexpr int kWorkerThreads = 2;
/// Untraced passes per run; ops_per_s is the fastest of them.
constexpr std::size_t kMinPasses = 3;

struct Plane {
  std::vector<std::unique_ptr<fl::fed::FLJob>> jobs;
  std::vector<fl::serve::TenantMix> mix;
  fl::serve::StreamConfig stream;
  std::unique_ptr<fl::ObjectStore> store;
  std::unique_ptr<fl::backend::ObjectStoreBackend> raw_cold;
  std::unique_ptr<TimedBackend> timed_cold;
  std::unique_ptr<fl::serve::ShardedStore> plane;
};

fl::serve::StreamConfig stream_config(std::uint64_t seed) {
  fl::serve::StreamConfig cfg;
  cfg.duration_s = kHorizonS;
  cfg.round_interval_s = kRoundIntervalS;
  cfg.seed = seed;
  cfg.rate.base_qps = kBaseQps;
  cfg.rate.surges.push_back(
      fl::serve::RateProfile::Surge{0.45 * kHorizonS, 0.55 * kHorizonS, 2.5});
  cfg.population.clients = 1'000'000;
  cfg.population.zipf_exponent = 0.9;
  return cfg;
}

std::unique_ptr<Plane> build_plane(std::uint64_t seed, int worker_threads,
                                   Tracer* tracer, bool traced) {
  auto p = std::make_unique<Plane>();
  const std::array<const char*, 2> models = {"resnet18", "efficientnet_v2_s"};
  const std::array<double, 2> weights = {0.7, 0.3};
  for (std::size_t t = 0; t < models.size(); ++t) {
    fl::fed::FLJobConfig job_cfg;
    job_cfg.model = models[t];
    job_cfg.pool_size = 250;
    job_cfg.clients_per_round = 10;
    job_cfg.rounds = 1000;
    job_cfg.seed = kJobSeeds[t];
    p->jobs.push_back(std::make_unique<fl::fed::FLJob>(job_cfg));
    p->mix.push_back(fl::serve::TenantMix{
        static_cast<fl::JobId>(t), p->jobs.back().get(), weights[t],
        {fl::fed::WorkloadType::kReputation,
         fl::fed::WorkloadType::kSchedulingPerf},
        5});
  }
  p->stream = stream_config(seed);
  p->store = std::make_unique<fl::ObjectStore>(fl::sim::objstore_link(),
                                               fl::PricingCatalog::aws());
  p->raw_cold = std::make_unique<fl::backend::ObjectStoreBackend>(*p->store);
  fl::backend::StorageBackend* cold = p->raw_cold.get();
  if (traced) {
    p->timed_cold = std::make_unique<TimedBackend>(*p->raw_cold, tracer);
    cold = p->timed_cold.get();
  }
  fl::serve::ShardedStoreConfig cfg;
  cfg.worker_threads = worker_threads;
  cfg.routing = fl::serve::Routing::kHash;
  cfg.coalesce_cold_fetches = true;
  p->plane = std::make_unique<fl::serve::ShardedStore>(*cold, cfg);
  for (const auto& job : p->jobs) {
    (void)p->plane->add_tenant(*job, {}, kShardsPerTenant);
  }
  return p;
}

/// One serve_open_loop_stream run on a fresh plane.
struct Pass {
  double wall_s = 0.0;
  bool threw = false;
  std::string error;
  std::uint64_t digest = 0;
  std::uint64_t records = 0;
  std::uint64_t rejected = 0;
  std::uint64_t within_slo = 0;
  std::vector<double> latency_s;  ///< completed requests, queueing included
  double usd_per_round = 0.0;
  std::array<double, 4> queue_s{}, comm_s{}, comp_s{};
  std::array<std::uint64_t, 4> completed{};
  std::uint64_t sched_rejected = 0;
  std::size_t sched_peak_queued = 0;
  double join_ratio = 0.0;
  std::size_t tracker_max = 0;
  double hit_rate = 0.0;
  std::uint64_t misses = 0;
  std::uint64_t forced_evictions = 0;
  fl::backend::OpStats backend;
  std::int64_t backend_ns = 0;
};

Pass run_pass(std::uint64_t seed, int worker_threads, Tracer* tracer,
              bool traced) {
  Pass pass;
  auto p = build_plane(seed, worker_threads, tracer, traced);
  std::optional<fl::serve::ServiceReport> report;
  const auto start = now_ns();
  try {
    std::optional<ScopedSpan> span;
    if (traced) {
      span.emplace(tracer, "serve.open_loop_stream", seed);
      tracer->set_root(span->id());
    }
    report.emplace(p->plane->serve_open_loop_stream(p->stream, p->mix));
  } catch (const std::exception& e) {
    pass.threw = true;
    pass.error = e.what();
  }
  pass.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  if (traced) tracer->set_root(0);
  if (!report) return pass;

  const auto slo_s = fl::serve::SchedulerConfig{}.slo_s;
  Digest digest;
  pass.records = report->records.size();
  pass.latency_s.reserve(report->records.size());
  for (const auto& rec : report->records) {
    const auto cls = fl::fed::class_index(rec.policy_class());
    const auto& req = rec.request;
    if (rec.rejected) {
      ++pass.rejected;
      digest.add_request(req.id, static_cast<std::uint64_t>(req.type),
                         req.round, -1.0, 0.0, 0, 0);
      continue;
    }
    digest.add_request(req.id, static_cast<std::uint64_t>(req.type),
                       req.round, rec.latency_s(), rec.cost_usd, rec.hits,
                       rec.misses);
    pass.latency_s.push_back(rec.latency_s());
    if (rec.latency_s() <= slo_s[cls]) ++pass.within_slo;
    pass.queue_s[cls] += rec.queue_s;
    pass.comm_s[cls] += rec.comm_s;
    pass.comp_s[cls] += rec.comp_s;
    ++pass.completed[cls];
  }
  pass.digest = digest.value();

  const auto rounds_per_tenant =
      static_cast<double>(static_cast<int>(kHorizonS / kRoundIntervalS) + 1);
  pass.usd_per_round =
      (report->total_cost_usd() + p->plane->infrastructure_cost(kHorizonS) +
       p->raw_cold->idle_cost(kHorizonS)) /
      (rounds_per_tenant * static_cast<double>(p->jobs.size()));
  for (const auto& c : report->scheduler) {
    pass.sched_rejected += c.rejected;
    pass.sched_peak_queued = std::max(pass.sched_peak_queued, c.peak_queued);
  }
  const auto& co = report->coalescer;
  pass.join_ratio = co.leads + co.joins > 0
                        ? static_cast<double>(co.joins) /
                              static_cast<double>(co.leads + co.joins)
                        : 0.0;
  for (int s = 0; s < p->plane->shard_count(); ++s) {
    const auto& shard = p->plane->shard(s);
    pass.tracker_max =
        std::max(pass.tracker_max, shard.tracker().total_tracked());
    pass.forced_evictions += shard.engine().forced_evictions();
  }
  pass.hit_rate = report->hit_rate();
  pass.misses = report->total_misses();
  pass.backend = p->raw_cold->stats();
  if (p->timed_cold) pass.backend_ns = p->timed_cold->wall_ns();
  return pass;
}

/// Drain one replica of the stream (each tenant timeline replays its own
/// replica): the arrival count the records must match, and the wall time
/// the drain takes.
std::uint64_t drain_stream(std::uint64_t seed, Tracer* tracer,
                           double* wall_s) {
  auto p = build_plane(seed, 0, nullptr, false);
  fl::serve::ArrivalStream stream(p->stream, p->mix);
  std::uint64_t arrivals = 0;
  const auto start = now_ns();
  if (tracer == nullptr) {
    while (stream.next()) ++arrivals;
  } else {
    // One span for the drain and one for every 64th next() call.
    ScopedSpan drain(tracer, "fed.stream_drain", seed);
    for (;;) {
      if (arrivals % 64 != 0) {
        if (!stream.next()) break;
      } else {
        ScopedSpan span(tracer, "fed.stream_next", arrivals + 1);
        if (!stream.next()) break;
      }
      ++arrivals;
    }
  }
  *wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  return arrivals;
}

}  // namespace

Result run_metadata_stream(const RunOptions& options) {
  Result result;
  Tracer tracer;
  SetupTimer setups;
  // Peak memory through the first pass: later passes reuse the freed heap,
  // so the first is the one a single-shot user pays for.
  double rss_mb = 0.0;
  double drain_s = 0.0;
  const auto arrivals = drain_stream(
      options.seed, options.trace ? &tracer : nullptr, &drain_s);

  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  const auto start = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  while (untraced.size() < kMinPasses || (options.trace && traced.empty()) ||
         elapsed_s() < options.seconds) {
    const bool trace_this = options.trace && traced.size() < untraced.size();
    setups.sample([&] {
      (void)build_plane(options.seed, kWorkerThreads, nullptr, false);
    });
    auto pass = run_pass(options.seed, kWorkerThreads,
                         trace_this ? &tracer : nullptr, trace_this);
    (trace_this ? traced : untraced).push_back(std::move(pass));
    if (untraced.size() == 1 && traced.empty()) rss_mb = peak_rss_mb();
  }
  // Tenant timelines are deterministic in simulated time, so the inline
  // (no worker threads) plane must produce the same records.
  const auto inline_pass = run_pass(options.seed, 0, nullptr, false);

  const auto& first = untraced.front();
  std::vector<double> rates;
  std::vector<double> walls;
  bool same_digest = !inline_pass.threw && inline_pass.digest == first.digest;
  for (const auto* set : {&untraced, &traced}) {
    for (const auto& pass : *set) {
      result.attempted += arrivals;
      if (pass.threw) {
        // An escaping exception fails every op the run attempted.
        result.failed += arrivals;
        result.note("serve_open_loop_stream threw: " + pass.error);
        continue;
      }
      result.failed += pass.rejected;
      same_digest = same_digest && pass.digest == first.digest;
      result.check(pass.records == arrivals,
                   "records (" + std::to_string(pass.records) +
                       ") != arrivals (" + std::to_string(arrivals) + ")");
    }
  }
  for (const auto& pass : untraced) {
    if (pass.threw) continue;
    rates.push_back(static_cast<double>(arrivals) / pass.wall_s);
    walls.push_back(pass.wall_s);
  }
  result.check(same_digest,
               "per-request digest differs between passes (worker_threads 0 "
               "and 2, traced and untraced)");
  // Each pass is the same work; other processes on a shared machine only
  // ever slow one down, so the fastest pass is the steadiest estimate.
  if (!rates.empty()) {
    result.set("ops_per_s", *std::max_element(rates.begin(), rates.end()));
  }
  result.set("peak_rss_mb", rss_mb);
  result.set("setup_s", setups.median_s());
  if (!first.threw) {
    result.note("arrivals " + std::to_string(arrivals) + ", rejected " +
                std::to_string(first.rejected) + ", passes " +
                std::to_string(untraced.size()) + " untraced + " +
                std::to_string(traced.size()) + " traced");
  }
  if (!options.trace) return result;

  // Per-layer numbers; modelled counters repeat exactly per seed.
  result.set("fed.stream_drain_s", drain_s);
  for (std::size_t c = 0; c < 4; ++c) {
    const double done = static_cast<double>(first.completed[c]);
    if (done == 0) continue;
    result.set(std::string("serve.queue_s_mean.") + class_name(c),
               first.queue_s[c] / done);
    result.set(std::string("serve.comm_s_mean.") + class_name(c),
               first.comm_s[c] / done);
    result.set(std::string("serve.comp_s_mean.") + class_name(c),
               first.comp_s[c] / done);
  }
  result.set("serve.sched_rejected", static_cast<double>(first.sched_rejected));
  result.set("serve.sched_peak_queued",
             static_cast<double>(first.sched_peak_queued));
  result.set("serve.coalescer_join_ratio", first.join_ratio);
  result.set("core.tracker_tracked_max", static_cast<double>(first.tracker_max));
  result.set("core.hit_rate", first.hit_rate);
  result.set("core.misses", static_cast<double>(first.misses));
  result.set("core.forced_evictions",
             static_cast<double>(first.forced_evictions));
  result.set_backend_stats(first.backend);
  double traced_wall = 0.0;
  std::int64_t backend_ns = 0;
  std::vector<double> traced_walls;
  for (const auto& pass : traced) {
    traced_wall += pass.wall_s;
    backend_ns += pass.backend_ns;
    traced_walls.push_back(pass.wall_s);
  }
  result.set("backend.wall_share",
             static_cast<double>(backend_ns) * 1e-9 / traced_wall);
  auto latencies = first.latency_s;
  result.set("sim_p50_s", percentile(latencies, 50'000));
  result.set("sim_p99_s", percentile(latencies, 99'000));
  result.set("usd_per_round", first.usd_per_round);
  result.set("slo_attainment", static_cast<double>(first.within_slo) /
                                   static_cast<double>(arrivals));
  result.set("failed_share", static_cast<double>(first.rejected) /
                                 static_cast<double>(arrivals));
  result.set("trace_overhead", median(traced_walls) / median(walls) - 1.0);
  result.check(tracer.write_jsonl(options.spans_path),
               "could not write spans to " + options.spans_path);
  return result;
}

}  // namespace perfbench
