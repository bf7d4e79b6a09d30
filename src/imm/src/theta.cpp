#include "eim/imm/theta.hpp"

#include <cmath>

#include "eim/support/bits.hpp"
#include "eim/support/error.hpp"

namespace eim::imm {

double log_binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return -std::numeric_limits<double>::infinity();
  if (k == 0 || k == n) return 0.0;
  // lgamma_r, not std::lgamma: that one also writes the global `signgam`, a
  // data race when solves run on several threads at once.
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign) -
         ::lgamma_r(static_cast<double>(k) + 1.0, &sign) -
         ::lgamma_r(static_cast<double>(n - k) + 1.0, &sign);
}

ThetaSchedule::ThetaSchedule(std::uint32_t num_vertices, const ImmParams& params)
    : n_(num_vertices) {
  EIM_CHECK_MSG(num_vertices >= 2, "graph too small for IMM");
  EIM_CHECK_MSG(params.k >= 1 && params.k <= num_vertices, "k out of range");
  EIM_CHECK_MSG(params.epsilon > 0.0 && params.epsilon < 1.0, "epsilon out of (0,1)");
  EIM_CHECK_MSG(params.ell > 0.0, "ell must be positive");

  const double n = static_cast<double>(num_vertices);
  const double log_n = std::log(n);
  const double log_nk = log_binomial(num_vertices, params.k);

  // ell is bumped so the three union-bounded failure events still total
  // n^-ell (Tang et al., remark after Theorem 2).
  const double ell = params.ell * (1.0 + std::log(2.0) / log_n);

  epsilon_prime_ = std::sqrt(2.0) * params.epsilon;

  // lambda' drives the estimation phase (IMM eq. for theta_i).
  const double log_log2n =
      std::log(std::max(2.0, std::log2(n)));  // guard tiny graphs
  lambda_prime_ = (2.0 + 2.0 / 3.0 * epsilon_prime_) *
                  (log_nk + ell * log_n + log_log2n) * n /
                  (epsilon_prime_ * epsilon_prime_);

  // lambda* drives the final sample count (IMM Theorem 1).
  constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;
  const double alpha = std::sqrt(ell * log_n + std::log(2.0));
  const double beta =
      std::sqrt(kOneMinusInvE * (log_nk + ell * log_n + std::log(2.0)));
  const double combined = kOneMinusInvE * alpha + beta;
  lambda_star_ = 2.0 * n * combined * combined / (params.epsilon * params.epsilon);

  const auto log2_ceil = support::ceil_log2(num_vertices);
  max_rounds_ = log2_ceil > 1 ? log2_ceil - 1 : 1;
}

double ThetaSchedule::guess(std::uint32_t round) const noexcept {
  return static_cast<double>(n_) / std::exp2(static_cast<double>(round));
}

std::uint64_t ThetaSchedule::round_theta(std::uint32_t round) const noexcept {
  return static_cast<std::uint64_t>(std::ceil(lambda_prime_ / guess(round)));
}

bool ThetaSchedule::passes(std::uint32_t round, double coverage_fraction) const noexcept {
  return static_cast<double>(n_) * coverage_fraction >=
         (1.0 + epsilon_prime_) * guess(round);
}

double ThetaSchedule::lower_bound(double coverage_fraction) const noexcept {
  return static_cast<double>(n_) * coverage_fraction / (1.0 + epsilon_prime_);
}

std::uint64_t ThetaSchedule::final_theta(double lb) const noexcept {
  if (lb < 1.0) lb = 1.0;  // OPT >= k >= 1 always
  return static_cast<std::uint64_t>(std::ceil(lambda_star_ / lb));
}

}  // namespace eim::imm
