// hot_skewed: the real-thread hot path (ShardedStore::hot_get / hot_put /
// hot_evict, striped mode) as a closed loop of 2 workers with no think
// time. One tenant on 4 shards, 2048 prefilled keys with Zipf(0.9)
// popularity, a 95/4/1 get/put/evict mix; op streams are pre-built from the
// seed. The only workload that reaches the lock, lookup, stripe and drain
// path, and it touches none of the simulator. Two workers because on a
// small shared machine that count repeats; four workers on a mixed load
// ranged over almost 3x between runs.
#include <algorithm>
#include <array>
#include <string>

#include "cloud/object_store.hpp"
#include "cloud/pricing.hpp"
#include "common/rng.hpp"
#include "fed/fl_job.hpp"
#include "obs/hot_counters.hpp"
#include "serve/sharded_store.hpp"
#include "serve/thread_pool.hpp"
#include "sim/calibration.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fl = flstore;

namespace {

constexpr int kWorkers = 2;
constexpr int kKeys = 2048;
constexpr int kShards = 4;
constexpr double kZipfExponent = 0.9;
constexpr double kPutShare = 0.04;
constexpr double kEvictShare = 0.01;
constexpr fl::units::Bytes kObjectBytes = 256 * 1024;
constexpr int kOpsPerWorker = 400'000;
/// Untraced passes time every 8th op (the get latency); traced passes time
/// every op and record a span for every 64th.
constexpr int kLatencyStride = 8;
constexpr int kSpanStride = 64;

enum class OpKind : std::uint8_t { kGet, kPut, kEvict };

struct Op {
  fl::MetadataKey key;
  OpKind kind = OpKind::kGet;
};

fl::MetadataKey nth_key(int rank) {
  // Spread ranks over (client, round) so the shard hash sees distinct keys.
  return fl::MetadataKey::update(rank % 64, rank / 64);
}

std::vector<std::vector<Op>> build_streams(std::uint64_t seed) {
  const fl::ZipfDistribution zipf(kKeys, kZipfExponent);
  std::vector<std::vector<Op>> streams(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    fl::Rng rng(seed ^ (static_cast<std::uint64_t>(w + 1) *
                        0x9E3779B97F4A7C15ULL));
    auto& stream = streams[static_cast<std::size_t>(w)];
    stream.reserve(kOpsPerWorker);
    for (int i = 0; i < kOpsPerWorker; ++i) {
      Op op;
      op.key = nth_key(zipf(rng));
      const double r = rng.uniform();
      op.kind = r < kPutShare                 ? OpKind::kPut
                : r < kPutShare + kEvictShare ? OpKind::kEvict
                                              : OpKind::kGet;
      stream.push_back(op);
    }
  }
  return streams;
}

struct Samples {
  std::vector<double> get_us, put_us, evict_us;
};

/// A fresh plane with every key prefilled.
struct HotPlane {
  HotPlane(const fl::fed::FLJobConfig& job_cfg, bool counted)
      : job(job_cfg), plane(cold, config(counted ? &counters : nullptr)) {
    tenant = plane.add_tenant(job, {}, kShards);
    for (int k = 0; k < kKeys; ++k) {
      (void)plane.hot_put(tenant, nth_key(k), kObjectBytes, 0.0, 0);
    }
    counters.reset();
  }

  static fl::serve::ShardedStoreConfig config(fl::obs::HotCounters* counters) {
    fl::serve::ShardedStoreConfig cfg;
    cfg.worker_threads = 0;  // the benchmark's workers are the callers
    cfg.hot_path.mode = fl::serve::HotPathMode::kStriped;
    cfg.hot_path.counters = counters;
    return cfg;
  }

  fl::fed::FLJob job;
  fl::ObjectStore cold{fl::sim::objstore_link(), fl::PricingCatalog::aws()};
  fl::obs::HotCounters counters;
  fl::serve::ShardedStore plane;
  fl::JobId tenant = 0;
};

fl::fed::FLJobConfig job_config(std::uint64_t seed) {
  fl::fed::FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 60;
  cfg.clients_per_round = 8;
  cfg.rounds = 4;
  cfg.seed = seed;
  return cfg;
}

/// One pass: both workers replay their streams from a common start on a
/// fresh plane.
struct Pass {
  double wall_s = 0.0;
  double sync_ms = 0.0;
  bool ledger_exact = false;
  std::array<Samples, kWorkers> samples;
  std::array<std::uint64_t, fl::obs::HotCounters::kSlotCount> counters{};
};

Pass run_pass(const std::vector<std::vector<Op>>& streams,
              std::uint64_t gets_issued, std::uint64_t seed, Tracer* tracer,
              bool traced) {
  Pass pass;
  // Hot counters are observability, so only traced passes install them.
  HotPlane hot(job_config(seed), traced);
  auto& plane = hot.plane;
  const auto tenant = hot.tenant;
  const int stride = traced ? 1 : kLatencyStride;
  for (auto& s : pass.samples) {
    s.get_us.reserve(kOpsPerWorker / stride + 1);
  }
  const auto run_op = [&](const Op& op, int worker) {
    switch (op.kind) {
      case OpKind::kGet:
        (void)plane.hot_get(tenant, op.key, 0.0, worker);
        break;
      case OpKind::kPut:
        (void)plane.hot_put(tenant, op.key, kObjectBytes, 0.0, worker);
        break;
      case OpKind::kEvict:
        (void)plane.hot_evict(tenant, op.key, worker);
        break;
    }
  };
  const auto start = now_ns();
  fl::serve::ThreadPool::run_replicated(kWorkers, [&](int worker) {
    const auto& stream = streams[static_cast<std::size_t>(worker)];
    auto& samples = pass.samples[static_cast<std::size_t>(worker)];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto& op = stream[i];
      if (i % static_cast<std::size_t>(stride) != 0) {
        run_op(op, worker);
        continue;
      }
      const bool span_this = traced && i % kSpanStride == 0;
      const char* name = op.kind == OpKind::kGet   ? "serve.hot_get"
                         : op.kind == OpKind::kPut ? "serve.hot_put"
                                                   : "serve.hot_evict";
      ScopedSpan span(span_this ? tracer : nullptr, name, i + 1);
      run_op(op, worker);
      const double us = static_cast<double>(span.stop()) * 1e-3;
      (op.kind == OpKind::kGet   ? samples.get_us
       : op.kind == OpKind::kPut ? samples.put_us
                                 : samples.evict_us)
          .push_back(us);
    }
  });
  pass.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  {
    ScopedSpan span(traced ? tracer : nullptr, "serve.hot_sync");
    plane.hot_sync();
    pass.sync_ms = static_cast<double>(span.stop()) * 1e-6;
  }
  std::uint64_t booked = 0;
  for (int s = 0; s < plane.shard_count(); ++s) {
    booked += plane.shard(s).engine().hits() + plane.shard(s).engine().misses();
  }
  pass.ledger_exact = booked == gets_issued;
  for (int slot = 0; slot < fl::obs::HotCounters::kSlotCount; ++slot) {
    pass.counters[static_cast<std::size_t>(slot)] =
        hot.counters.total(static_cast<fl::obs::HotCounters::Slot>(slot));
  }
  return pass;
}

std::vector<double> pooled(const Pass& pass, std::vector<double> Samples::*m) {
  std::vector<double> all;
  for (const auto& s : pass.samples) {
    all.insert(all.end(), (s.*m).begin(), (s.*m).end());
  }
  return all;
}

}  // namespace

Result run_hot_skewed(const RunOptions& options) {
  Result result;
  Tracer tracer;
  const auto streams = build_streams(options.seed);
  SetupTimer setups;
  // Peak memory through the first pass: later passes reuse the freed heap,
  // so the first is the one a single-shot user pays for.
  double rss_mb = 0.0;
  std::uint64_t gets = 0;
  for (const auto& stream : streams) {
    gets += static_cast<std::uint64_t>(
        std::count_if(stream.begin(), stream.end(),
                      [](const Op& op) { return op.kind == OpKind::kGet; }));
  }
  const auto ops_per_pass =
      static_cast<std::uint64_t>(kWorkers) * kOpsPerWorker;

  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  const auto start = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  while (untraced.size() < 3 || (options.trace && traced.size() < 3) ||
         elapsed_s() < options.seconds) {
    const bool trace_this = options.trace && traced.size() < untraced.size();
    setups.sample([&] { const HotPlane hot(job_config(options.seed), false); });
    auto pass = run_pass(streams, gets, options.seed,
                         trace_this ? &tracer : nullptr, trace_this);
    (trace_this ? traced : untraced).push_back(std::move(pass));
    if (untraced.size() == 1 && traced.empty()) rss_mb = peak_rss_mb();
  }

  std::vector<double> rates, walls;
  std::vector<double> get_p50, get_p99, put_p50, put_p99;
  bool ledger_exact = true;
  for (const auto* set : {&untraced, &traced}) {
    for (const auto& pass : *set) {
      result.attempted += ops_per_pass;
      ledger_exact = ledger_exact && pass.ledger_exact;
    }
  }
  for (const auto& pass : untraced) {
    rates.push_back(static_cast<double>(ops_per_pass) / pass.wall_s);
    walls.push_back(pass.wall_s);
    auto g = pooled(pass, &Samples::get_us);
    auto p = pooled(pass, &Samples::put_us);
    get_p50.push_back(percentile(g, 50'000));
    get_p99.push_back(percentile(g, 99'000));
    put_p50.push_back(percentile(p, 50'000));
    put_p99.push_back(percentile(p, 99'000));
  }
  result.check(ledger_exact,
               "engine hits + misses != gets issued after hot_sync");
  // The median pass, not the fastest: where the scheduler places the two
  // contending workers (sibling hardware threads or not) moves single
  // passes both ways.
  result.set("ops_per_s", median(rates));
  result.set("setup_s", setups.median_s());
  result.set("peak_rss_mb", rss_mb);
  result.note("passes: " + std::to_string(untraced.size()) + " untraced + " +
              std::to_string(traced.size()) + " traced, " +
              std::to_string(ops_per_pass) + " ops each");
  if (!options.trace) return result;

  result.set("get_p50_us", median(get_p50));
  result.set("get_p99_us", median(get_p99));
  result.set("put_p50_us", median(put_p50));
  result.set("put_p99_us", median(put_p99));
  std::vector<double> evict_p99, sync_ms, traced_walls;
  std::array<std::uint64_t, fl::obs::HotCounters::kSlotCount> totals{};
  for (const auto& pass : traced) {
    auto e = pooled(pass, &Samples::evict_us);
    evict_p99.push_back(percentile(e, 99'000));
    sync_ms.push_back(pass.sync_ms);
    traced_walls.push_back(pass.wall_s);
    for (std::size_t s = 0; s < totals.size(); ++s) {
      totals[s] += pass.counters[s];
    }
  }
  using Slot = fl::obs::HotCounters::Slot;
  const auto ratio = [&](Slot num, Slot den) {
    return totals[den] > 0 ? static_cast<double>(totals[num]) /
                                 static_cast<double>(totals[den])
                           : 0.0;
  };
  result.set("serve.hot_evict_p99_us", median(evict_p99));
  result.set("serve.hot_sync_ms", median(sync_ms));
  result.set("obs.hot_drains", static_cast<double>(totals[Slot::kDrains]) /
                                   static_cast<double>(traced.size()));
  result.set("obs.hot_accesses_per_drain",
             ratio(Slot::kDrainedAccesses, Slot::kDrains));
  result.set("obs.hot_hit_rate", ratio(Slot::kHits, Slot::kGets));
  result.set("obs.hot_put_reject_share", ratio(Slot::kPutRejects, Slot::kPuts));
  result.set("trace_overhead", median(traced_walls) / median(walls) - 1.0);
  result.check(tracer.write_jsonl(options.spans_path),
               "could not write spans to " + options.spans_path);
  return result;
}

}  // namespace perfbench
