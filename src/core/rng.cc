#include "core/rng.h"

#include <cmath>

#include "core/status.h"

namespace promptem::core {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64(uint64_t n) {
  PROMPTEM_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  PROMPTEM_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextU64(span));
}

float Rng::NextFloat() {
  return static_cast<float>(NextU64() >> 40) * (1.0f / 16777216.0f);
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
}

float Rng::Uniform(float lo, float hi) { return lo + (hi - lo) * NextFloat(); }

float Rng::Gaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  float u1 = 0.0f;
  do {
    u1 = NextFloat();
  } while (u1 <= 1e-12f);
  float u2 = NextFloat();
  float mag = std::sqrt(-2.0f * std::log(u1));
  spare_gaussian_ = mag * std::sin(6.28318530717958647692f * u2);
  has_spare_gaussian_ = true;
  return mag * std::cos(6.28318530717958647692f * u2);
}

float Rng::Gaussian(float mean, float stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

uint64_t Rng::BernoulliThreshold(double p) {
  constexpr double kTwo53 = 9007199254740992.0;
  if (!(p > 0.0)) return 0;  // also NaN, which Bernoulli never accepts
  if (p >= 1.0) return static_cast<uint64_t>(kTwo53);
  return static_cast<uint64_t>(std::ceil(p * kTwo53));
}

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    PROMPTEM_CHECK(w >= 0.0);
    total += w;
  }
  PROMPTEM_CHECK(total > 0.0);
  double r = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(NextU64() ^ 0xD6E8FEB86659FD93ULL); }

}  // namespace promptem::core
