// Tests of the benchmark's own helpers: the percentile rule, the result
// digest, the metric-name charset and the transparency of the timing
// decorator.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "backend/object_store_backend.hpp"
#include "cloud/object_store.hpp"
#include "cloud/pricing.hpp"
#include "round_trace.hpp"
#include "sim/calibration.hpp"
#include "stats.hpp"
#include "timed_backend.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(highest_percentile(0), 0u);
  EXPECT_EQ(highest_percentile(19), 0u);  // the median has 9 beyond
  EXPECT_EQ(highest_percentile(20), 50'000u);
  EXPECT_EQ(highest_percentile(99), 50'000u);
  EXPECT_EQ(highest_percentile(100), 90'000u);
  EXPECT_EQ(highest_percentile(999), 90'000u);  // p99 would have 9 beyond
  EXPECT_EQ(highest_percentile(1000), 99'000u);
  EXPECT_EQ(highest_percentile(9999), 99'000u);
  EXPECT_EQ(highest_percentile(10'000), 99'900u);
  EXPECT_EQ(highest_percentile(100'000), 99'990u);
  EXPECT_EQ(highest_percentile(1'000'000), 99'999u);
  EXPECT_EQ(highest_percentile(100'000'000), 99'999u);  // top of the ladder
}

TEST(PercentileRule, ReportedPercentileHasTenSamplesBeyondIt) {
  for (std::uint64_t n = 1; n < 30'000; n += 7) {
    const auto p = highest_percentile(n);
    if (p == 0) continue;
    EXPECT_GE(samples_beyond(n, p), 10u) << "n=" << n;
  }
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50'000), 50.0);
  EXPECT_EQ(percentile(v, 99'000), 99.0);
  EXPECT_EQ(percentile(v, 99'999), 100.0);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50'000), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

Digest digest_of(const std::vector<double>& latencies) {
  Digest d;
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    d.add_request(i + 1, i % 12, static_cast<std::int64_t>(i), latencies[i],
                  0.25, 2, 1);
  }
  return d;
}

TEST(DigestTest, StableForEqualInputs) {
  EXPECT_EQ(Digest{}.value(), 0xcbf29ce484222325ULL);  // FNV-1a offset
  EXPECT_EQ(digest_of({1.5, 2.5, 3.5}).value(),
            digest_of({1.5, 2.5, 3.5}).value());
}

TEST(DigestTest, SensitiveToEveryBitOrderAndField) {
  const auto base = digest_of({1.5, 2.5, 3.5}).value();
  EXPECT_NE(base, digest_of({1.5, 3.5, 2.5}).value());
  EXPECT_NE(base, digest_of({1.5, 2.5, std::nextafter(3.5, 4.0)}).value());
  EXPECT_NE(digest_of({0.0}).value(), digest_of({-0.0}).value());
  Digest a, b;
  a.add_request(1, 0, 0, 1.0, 0.5, 1, 0);
  b.add_request(1, 0, 0, 1.0, 0.5, 0, 1);
  EXPECT_NE(a.value(), b.value());
}

TEST(MetricNames, Charset) {
  EXPECT_TRUE(valid_metric_name("ops_per_s"));
  EXPECT_TRUE(valid_metric_name("core.serve_p99_us.P1"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("with space"));
  EXPECT_FALSE(valid_metric_name("per/s"));
  EXPECT_FALSE(valid_metric_name("ops\"x"));
}

TEST(MetricNames, SchemaNamesAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& spec : *specs) {
      EXPECT_TRUE(valid_metric_name(spec.name)) << spec.name;
      EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate " << spec.name;
      EXPECT_FALSE(spec.unit.empty()) << spec.name;
    }
  }
  EXPECT_EQ(end_to_end_metrics().front().name, "ops_per_s");
}

TEST(TimedBackendTest, ForwardsEveryCallUnchanged) {
  flstore::ObjectStore store_a(flstore::sim::objstore_link(),
                               flstore::PricingCatalog::aws());
  flstore::ObjectStore store_b(flstore::sim::objstore_link(),
                               flstore::PricingCatalog::aws());
  flstore::backend::ObjectStoreBackend plain(store_a);
  flstore::backend::ObjectStoreBackend inner(store_b);
  Tracer tracer;
  TimedBackend timed(inner, &tracer);

  const flstore::Blob blob(1000, 7);
  const auto put_a = plain.put("k", blob, 4096, 1.0);
  const auto put_b = timed.put("k", blob, 4096, 1.0);
  EXPECT_EQ(put_a.latency_s, put_b.latency_s);
  EXPECT_EQ(put_a.request_fee_usd, put_b.request_fee_usd);
  const auto get_a = plain.get("k", 2.0);
  const auto get_b = timed.get("k", 2.0);
  EXPECT_EQ(get_a.latency_s, get_b.latency_s);
  EXPECT_EQ(*get_a.blob, *get_b.blob);
  EXPECT_EQ(timed.kind(), plain.kind());
  EXPECT_EQ(timed.name(), plain.name());
  EXPECT_EQ(timed.stats().gets, plain.stats().gets);
  EXPECT_EQ(timed.stats().fees_usd, plain.stats().fees_usd);
  EXPECT_EQ(timed.idle_cost(3600.0), plain.idle_cost(3600.0));
  EXPECT_TRUE(timed.contains("k"));
  EXPECT_EQ(timed.calls(), 2u);
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(TimedBackendTest, ReplayDigestIsTheSameWithAndWithoutDecorator) {
  Tracer tracer;
  const auto plain = replay_round_trace(7, 0.02, false, nullptr);
  const auto timed = replay_round_trace(7, 0.02, true, &tracer);
  ASSERT_GT(plain.attempted, 0u);
  EXPECT_EQ(plain.attempted, timed.attempted);
  EXPECT_EQ(plain.digest, timed.digest);
  EXPECT_EQ(plain.backend.gets, timed.backend.gets);
  EXPECT_EQ(plain.backend.fees_usd, timed.backend.fees_usd);
  EXPECT_GT(timed.backend_ns, 0);
  EXPECT_GT(tracer.size(), timed.attempted);
  // A different seed is a different trace.
  EXPECT_NE(plain.digest, replay_round_trace(8, 0.02, false, nullptr).digest);
}

}  // namespace
}  // namespace perfbench
