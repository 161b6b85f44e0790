#ifndef PROMPTEM_CORE_RNG_H_
#define PROMPTEM_CORE_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace promptem::core {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// splitmix64). All stochastic components in the library (initialization,
/// dropout, MLM masking, dataset generation, k-means, random walks) draw
/// from an explicitly passed Rng so runs are reproducible end to end.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value (xoshiro256**).
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n). Requires n > 0.
  uint64_t NextU64(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform float in [0, 1).
  float NextFloat();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform float in [lo, hi).
  float Uniform(float lo, float hi);

  /// Standard normal via Box-Muller.
  float Gaussian();

  /// Normal with the given mean and standard deviation.
  float Gaussian(float mean, float stddev);

  /// Bernoulli draw with probability p of true.
  bool Bernoulli(double p);

  /// The integer form of Bernoulli(p) for hot loops: on the same draw,
  /// BernoulliBelow(BernoulliThreshold(p)) == Bernoulli(p). NextDouble()
  /// is (u >> 11) * 2^-53, an exact scaling, so (u >> 11) * 2^-53 < p
  /// holds exactly when the integer (u >> 11) is below ceil(p * 2^53).
  static uint64_t BernoulliThreshold(double p);
  bool BernoulliBelow(uint64_t threshold) {
    return (NextU64() >> 11) < threshold;
  }

  /// Fisher-Yates shuffle of an index-addressable container.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (std::size_t i = v->size() - 1; i > 0; --i) {
      std::size_t j = static_cast<std::size_t>(NextU64(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples an index according to non-negative weights (sum > 0).
  std::size_t Categorical(const std::vector<double>& weights);

  /// Derives a child generator with an independent-looking stream. Used to
  /// give each module (data gen, model init, dropout) its own stream from
  /// one top-level seed.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool has_spare_gaussian_ = false;
  float spare_gaussian_ = 0.0f;
};

}  // namespace promptem::core

#endif  // PROMPTEM_CORE_RNG_H_
