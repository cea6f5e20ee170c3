// Special functions needed by the statistical tests, hand-rolled (no
// external math library): log-factorials, the regularized incomplete
// gamma function, and chi-squared tail probabilities.

#ifndef HYPDB_STATS_SPECIAL_MATH_H_
#define HYPDB_STATS_SPECIAL_MATH_H_

#include <cstdint>
#include <vector>

namespace hypdb {

/// ln|Γ(x)|, thread-safe. std::lgamma writes the global `signgam` on
/// glibc — a data race under the service's worker pool — so every
/// concurrent path routes through this wrapper (lgamma_r where
/// available).
double LnGamma(double x);

/// ln(n!). Exact-table backed for small n, lgamma otherwise.
double LogFactorial(int64_t n);

/// A dense table of ln(0!), ..., ln(n!) — Patefield's algorithm consumes
/// log-factorials for every integer up to the table total.
std::vector<double> LogFactorialTable(int64_t n);

/// Grows `table` in place to ln(0!), ..., ln(n!) by LogFactorialTable's
/// recurrence, keeping the entries it already has (a no-op when it is
/// long enough), so a grow-only memo matches a fresh table bit for bit.
void ExtendLogFactorialTable(int64_t n, std::vector<double>* table);

/// Regularized lower incomplete gamma P(a, x) = γ(a,x)/Γ(a), a > 0, x ≥ 0.
double RegularizedGammaP(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double RegularizedGammaQ(double a, double x);

/// Survival function of the chi-squared distribution with `df` degrees of
/// freedom: Pr[X >= x]. Returns 1 for x <= 0.
double ChiSquaredSurvival(double df, double x);

/// CDF of the standard normal distribution.
double NormalCdf(double x);

}  // namespace hypdb

#endif  // HYPDB_STATS_SPECIAL_MATH_H_
