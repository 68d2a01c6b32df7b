// Pure helpers of the benchmark: the percentile rule, the per-request result
// digest and the metric-name charset. Header-only so the helper tests need
// nothing but this file.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace perfbench {

/// Percentiles the benchmark may report, in thousandths of a percent.
inline constexpr std::uint64_t kPercentileLadder[] = {50'000, 90'000, 99'000,
                                                      99'900, 99'990, 99'999};

/// 1-based nearest rank of percentile `p_milli` (thousandths of a percent)
/// among `n` sorted samples. Integer arithmetic, so p99 of 1000 samples is
/// rank 990 exactly.
[[nodiscard]] inline std::uint64_t nearest_rank(std::uint64_t n,
                                                std::uint64_t p_milli) {
  const std::uint64_t rank = (p_milli * n + 99'999) / 100'000;
  return std::max<std::uint64_t>(rank, 1);
}

/// Samples strictly above percentile `p_milli`'s nearest rank.
[[nodiscard]] inline std::uint64_t samples_beyond(std::uint64_t n,
                                                  std::uint64_t p_milli) {
  return n - std::min(n, nearest_rank(n, p_milli));
}

/// The highest percentile of the ladder with at least ten samples beyond it,
/// in thousandths of a percent; 0 when even the median has fewer.
[[nodiscard]] inline std::uint64_t highest_percentile(std::uint64_t n) {
  std::uint64_t best = 0;
  for (const auto p : kPercentileLadder) {
    if (n > 0 && samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double>& samples,
                                       std::uint64_t p_milli) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p_milli) - 1];
}

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// A metric name: starts with a letter or digit, at most 64 characters of
/// letters, digits, '_', '.' and '-'.
[[nodiscard]] inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// FNV-1a over the exact bytes of each field, so two runs digest equal only
/// when every field is bit-identical.
class Digest {
 public:
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }

  /// One served request: id, type, round, modelled latency, cost, hits,
  /// misses.
  void add_request(std::uint64_t id, std::uint64_t type, std::int64_t round,
                   double latency_s, double cost_usd, std::uint64_t hits,
                   std::uint64_t misses) {
    add(id);
    add(type);
    add(static_cast<std::uint64_t>(round));
    add(latency_s);
    add(cost_usd);
    add(hits);
    add(misses);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void add_bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
