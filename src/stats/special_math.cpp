#include "stats/special_math.h"

#include <algorithm>
#include <cmath>

namespace hypdb {

double LnGamma(double x) {
#if defined(__unix__) || defined(__APPLE__)
  // lgamma_r keeps the sign in a local instead of the signgam global.
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

namespace {

// Series expansion of P(a, x), converges quickly for x < a + 1.
double GammaPSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < 500; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * 1e-15) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LnGamma(a));
}

// Continued fraction (modified Lentz) of Q(a, x), for x >= a + 1.
double GammaQContinuedFraction(double a, double x) {
  const double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-15) break;
  }
  return std::exp(-x + a * std::log(x) - LnGamma(a)) * h;
}

}  // namespace

double LogFactorial(int64_t n) {
  if (n <= 1) return 0.0;
  return LnGamma(static_cast<double>(n) + 1.0);
}

std::vector<double> LogFactorialTable(int64_t n) {
  std::vector<double> table;
  ExtendLogFactorialTable(n, &table);
  return table;
}

void ExtendLogFactorialTable(int64_t n, std::vector<double>* table) {
  int64_t i = static_cast<int64_t>(table->size());
  if (i > n) return;
  table->resize(n + 1, 0.0);
  for (i = std::max<int64_t>(i, 2); i <= n; ++i) {
    (*table)[i] = (*table)[i - 1] + std::log(static_cast<double>(i));
  }
}

double RegularizedGammaP(double a, double x) {
  if (x <= 0.0) return 0.0;
  if (a <= 0.0) return 1.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  if (x <= 0.0) return 1.0;
  if (a <= 0.0) return 0.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double ChiSquaredSurvival(double df, double x) {
  if (x <= 0.0) return 1.0;
  if (df <= 0.0) return 0.0;
  return RegularizedGammaQ(df / 2.0, x / 2.0);
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

}  // namespace hypdb
