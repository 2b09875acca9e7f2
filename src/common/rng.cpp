#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace ysmart {

std::uint64_t Rng::next() {
  // splitmix64: fast, high-quality, and identical everywhere.
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  check(lo <= hi, "Rng::uniform: lo > hi");
  // Unsigned arithmetic: hi - lo and lo + offset overflow int64 on wide
  // ranges, while the two's-complement wrap gives the exact result.
  const auto ulo = static_cast<std::uint64_t>(lo);
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - ulo + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  return static_cast<std::int64_t>(ulo + next() % span);
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::exponential(double mean) {
  check(mean > 0, "Rng::exponential: mean must be positive");
  double u = uniform01();
  if (u <= 0) u = 1e-18;
  return -mean * std::log(u);
}

Zipf::Zipf(std::int64_t n, double s) : n_(n) {
  check(n >= 1, "Zipf: n must be >= 1");
  if (s <= 0) return;
  cdf_.reserve(static_cast<std::size_t>(n));
  double acc = 0;
  for (std::int64_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(double(i), s);
    cdf_.push_back(acc);
  }
}

std::int64_t Zipf::operator()(Rng& rng) const {
  if (cdf_.empty()) return rng.uniform(1, n_);
  const double u = rng.uniform01() * cdf_.back();
  // The prefix sums never decrease, so this is the first rank whose sum
  // reaches u.
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? n_ : (it - cdf_.begin()) + 1;
}

std::string Rng::ident(std::size_t len) {
  std::string out(len, 'a');
  for (auto& c : out) c = static_cast<char>('a' + next() % 26);
  return out;
}

}  // namespace ysmart
