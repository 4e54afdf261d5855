// Small helpers shared by the benchmark program: host timers, order
// statistics, a stable fingerprint hash, peak-RSS lookup, and the metric
// list that becomes the final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

/// Order statistics over a copy of `v`; 0 for an empty sample. quantile()
/// interpolates linearly between closest ranks (q in [0, 1]).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// FNV-1a over 64-bit words: the fingerprint of simulated statistics.
class Fnv {
 public:
  void add(std::uint64_t v);
  void add(double v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// The process's peak resident set, in MiB.
double peak_rss_mb();

/// A deterministic byte stream from `seed` (splitmix64): the payload
/// pattern every delivered byte is checked against.
std::vector<std::uint8_t> pattern_bytes(std::uint64_t seed, std::size_t n);

/// Mixes `seed` and `salt` into an independent derived seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's single machine-readable result line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& ms);

}  // namespace perfbench
