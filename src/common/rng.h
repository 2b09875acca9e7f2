// Seeded PRNG wrapper used by the data generators and the cluster
// contention model. Deterministic across platforms (xorshift-based, not
// std::mt19937 distribution-dependent) so benchmarks are reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ysmart {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ULL) {}

  /// Next raw 64-bit value (splitmix64).
  std::uint64_t next();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Exponentially distributed with the given mean (> 0).
  double exponential(double mean);

  /// Random fixed-length lowercase identifier.
  std::string ident(std::size_t len);

 private:
  std::uint64_t state_;
};

/// Zipf-distributed ranks in [1, n] with skew s (s <= 0 -> uniform). The
/// inverse CDF over the truncated harmonic series is built once: each
/// draw is one uniform01() and a binary search for the first rank whose
/// prefix sum reaches uniform01() * total.
class Zipf {
 public:
  /// Requires n >= 1.
  Zipf(std::int64_t n, double s);

  std::int64_t operator()(Rng& rng) const;

 private:
  std::int64_t n_;
  /// cdf_[i] = sum of 1/k^s for k = 1..i+1, summed in rank order; empty
  /// when s <= 0.
  std::vector<double> cdf_;
};

}  // namespace ysmart
