#include "util/rng.h"

#include <cassert>
#include <cmath>

namespace hypdb {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  // xoshiro256** must not be seeded all-zero; SplitMix64 never yields four
  // consecutive zeros.
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Normal() {
  // Box-Muller; discard the second variate for simplicity.
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  while (u1 <= 0.0) u1 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double Rng::Gamma(double shape) {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost shape by 1 and correct with a power of a uniform.
    double u = UniformDouble();
    while (u <= 0.0) u = UniformDouble();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia & Tsang (2000).
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = Normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = UniformDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

int Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return 0;
  double r = UniformDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

std::vector<double> Rng::Dirichlet(int k, double alpha) {
  std::vector<double> out(k);
  double total = 0.0;
  for (int i = 0; i < k; ++i) {
    out[i] = Gamma(alpha);
    total += out[i];
  }
  if (total <= 0.0) {
    for (int i = 0; i < k; ++i) out[i] = 1.0 / k;
    return out;
  }
  for (int i = 0; i < k; ++i) out[i] /= total;
  return out;
}

Rng Rng::Split() { return Rng(Next()); }

}  // namespace hypdb
