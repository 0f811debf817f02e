#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace qcongest::util {

/// The splitmix64 finalizer: a bijective 64-bit mixer. Frame checksums and
/// retransmission jitter (net/reliable), checkpoint digests
/// (recover/checkpoint) and retry backoff (serve/backoff) fold their inputs
/// through it, so their values depend on it bit for bit.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic, seedable random number generator used throughout the
/// library. Every randomized algorithm takes an `Rng&` so that experiments
/// are reproducible bit-for-bit from a seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::index: n == 0");
    return static_cast<std::size_t>(
        std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_));
  }

  /// Uniform real in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Standard normal sample.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Geometric sample: number of failures before first success, success
  /// probability p in (0, 1].
  std::uint64_t geometric(double p) {
    if (p >= 1.0) return 0;
    if (p <= 0.0) throw std::invalid_argument("Rng::geometric: p <= 0");
    return std::geometric_distribution<std::uint64_t>(p)(engine_);
  }

  /// Exponential sample with rate lambda > 0.
  double exponential(double lambda) {
    return std::exponential_distribution<double>(lambda)(engine_);
  }

  /// Uniformly random subset of size z from [0, n). Requires z <= n.
  /// Returned indices are unsorted. Uses Floyd's algorithm, O(z) expected.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t z);

  /// Random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Fisher-Yates shuffle of a span in place.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  /// Pick one element of a non-empty span uniformly.
  template <typename T>
  const T& choice(std::span<const T> items) {
    if (items.empty()) throw std::invalid_argument("Rng::choice: empty span");
    return items[index(items.size())];
  }

  std::mt19937_64& engine() { return engine_; }

  /// Derive an independent child generator (e.g. one per network node).
  Rng fork() { return Rng(engine_()); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace qcongest::util
