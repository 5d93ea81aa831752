#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace stisan {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// SplitMix64 for seeding.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::NextU64() {
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

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

float Rng::UniformFloat(float lo, float hi) {
  return lo + static_cast<float>(Uniform()) * (hi - lo);
}

uint64_t Rng::UniformInt(uint64_t n) {
  STISAN_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  STISAN_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  have_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::Exponential(double rate) {
  STISAN_CHECK_GT(rate, 0.0);
  double u = 0.0;
  while (u <= 1e-300) u = Uniform();
  return -std::log(u) / rate;
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    STISAN_CHECK_GE(w, 0.0);
    total += w;
  }
  return Categorical(weights, total);
}

size_t Rng::Categorical(const std::vector<double>& weights, double total) {
  STISAN_CHECK_GT(total, 0.0);
  double r = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<double> Rng::ZipfWeights(size_t n, double alpha) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i)
    w[i] = std::pow(static_cast<double>(i + 1), -alpha);
  return w;
}

size_t Rng::Zipf(size_t n, double alpha) {
  STISAN_CHECK_GT(n, 0u);
  if (ZipfDrawsFromTable(n, alpha)) return Categorical(ZipfWeights(n, alpha));
  // Rejection sampling (Devroye) for large n; valid only for alpha > 1.
  const double b = std::pow(2.0, alpha - 1.0);
  for (;;) {
    const double u = Uniform();
    const double v = Uniform();
    const double x = std::floor(std::pow(u, -1.0 / (alpha - 1.0)));
    if (x > static_cast<double>(n) || x < 1.0) continue;
    const double t = std::pow(1.0 + 1.0 / x, alpha - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b)
      return static_cast<size_t>(x) - 1;
  }
}

Rng Rng::Fork() {
  return Rng(NextU64());
}

Rng::State Rng::GetState() const {
  State state;
  for (size_t i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.have_cached_normal = have_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::SetState(const State& state) {
  for (size_t i = 0; i < 4; ++i) s_[i] = state.s[i];
  have_cached_normal_ = state.have_cached_normal;
  cached_normal_ = state.cached_normal;
}

}  // namespace stisan
