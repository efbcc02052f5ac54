// Deterministic pseudo-random number generation.
//
// Every stochastic component in nblb (cache placement, workload generators,
// benchmarks) takes an explicit Rng so that experiments are reproducible
// run-to-run given the same seed.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nblb {

/// \brief Stateless splitmix64 finalizer: a full-avalanche 64-bit mixer.
///
/// Used wherever sequential ids (page ids, auto-increment keys) must spread
/// uniformly over a small power-of-two space — the buffer pool's page
/// table, hash routing — without any shared state.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// \brief xoshiro256** generator: fast, high-quality, deterministic.
class Rng {
 public:
  /// Seeds the generator; the same seed yields the same stream on every
  /// platform (no std::random_device, no libstdc++-specific distributions).
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// \brief Next raw 64-bit value.
  uint64_t NextU64();

  /// \brief Uniform value in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  /// \brief Uniform value in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// \brief Uniform double in [0, 1).
  double NextDouble();

  /// \brief True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// \brief Uniform ASCII lowercase string of length n.
  std::string NextString(size_t n);

  /// \brief Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace nblb
