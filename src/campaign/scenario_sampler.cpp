#include "campaign/scenario_sampler.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <vector>

#include "common/check.hpp"

namespace caft {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Applies horizon censoring: a lifetime beyond the mission horizon is
/// indistinguishable from "never fails" for the replay.
double censor(double lifetime, double horizon) {
  return lifetime > horizon ? kInf : lifetime;
}

/// Processors an index pool holds on the stack: far more than the 64 an
/// Instance admits. Only a larger hand-built sampler spills to the heap.
constexpr std::size_t kStackPool = 256;

/// Picks `k` distinct processors of `n` uniformly — the draws of
/// Rng::sample_without_replacement(n, k), all made before the first visit —
/// and calls `visit(p)` for each pick in draw order.
template <typename Visit>
void for_each_pick(Rng& rng, std::size_t n, std::size_t k, Visit&& visit) {
  std::array<std::uint32_t, kStackPool> stack;
  std::vector<std::uint32_t> heap(n > kStackPool ? n : 0);
  std::uint32_t* pool = n > kStackPool ? heap.data() : stack.data();
  std::iota(pool, pool + n, std::uint32_t{0});
  rng.partial_shuffle(pool, n, k);
  for (std::size_t i = 0; i < k; ++i) visit(pool[i]);
}

}  // namespace

CrashScenario ScenarioSampler::sample(Rng& rng) const {
  std::vector<double> row(proc_count());
  sample_into(rng, row.data());
  return CrashScenario(std::move(row));
}

UniformKSampler::UniformKSampler(std::size_t proc_count, std::size_t failures)
    : proc_count_(proc_count), failures_(failures) {
  CAFT_CHECK_MSG(proc_count > 0, "sampler needs at least one processor");
  CAFT_CHECK_MSG(failures <= proc_count,
                 "cannot fail more processors than the platform has");
}

std::string UniformKSampler::name() const {
  std::ostringstream os;
  os << "uniform-k(" << failures_ << ")";
  return os.str();
}

void UniformKSampler::sample_into(Rng& rng, double* row) const {
  std::fill(row, row + proc_count_, kInf);
  for_each_pick(rng, proc_count_, failures_,
                [row](std::uint32_t p) { row[p] = 0.0; });
}

ExponentialLifetimeSampler::ExponentialLifetimeSampler(std::size_t proc_count,
                                                       double rate,
                                                       double horizon)
    : proc_count_(proc_count), rate_(rate), horizon_(horizon) {
  CAFT_CHECK_MSG(proc_count > 0, "sampler needs at least one processor");
  CAFT_CHECK_MSG(rate > 0.0, "exponential rate must be positive");
  CAFT_CHECK_MSG(horizon > 0.0, "horizon must be positive");
}

std::string ExponentialLifetimeSampler::name() const {
  std::ostringstream os;
  os << "exp-lifetime(rate=" << rate_ << ")";
  return os.str();
}

void ExponentialLifetimeSampler::sample_into(Rng& rng, double* row) const {
  for (std::size_t p = 0; p < proc_count_; ++p)
    row[p] = censor(rng.exponential(rate_), horizon_);
}

WeibullLifetimeSampler::WeibullLifetimeSampler(std::size_t proc_count,
                                               double shape, double scale,
                                               double horizon)
    : proc_count_(proc_count), shape_(shape), scale_(scale),
      horizon_(horizon) {
  CAFT_CHECK_MSG(proc_count > 0, "sampler needs at least one processor");
  CAFT_CHECK_MSG(shape > 0.0 && scale > 0.0,
                 "weibull shape and scale must be positive");
  CAFT_CHECK_MSG(horizon > 0.0, "horizon must be positive");
}

std::string WeibullLifetimeSampler::name() const {
  std::ostringstream os;
  os << "weibull-lifetime(shape=" << shape_ << ", scale=" << scale_ << ")";
  return os.str();
}

void WeibullLifetimeSampler::sample_into(Rng& rng, double* row) const {
  for (std::size_t p = 0; p < proc_count_; ++p)
    row[p] = censor(rng.weibull(shape_, scale_), horizon_);
}

CrashWindowSampler::CrashWindowSampler(std::size_t proc_count,
                                       std::size_t failures, double theta_lo,
                                       double theta_hi)
    : proc_count_(proc_count), failures_(failures), theta_lo_(theta_lo),
      theta_hi_(theta_hi) {
  CAFT_CHECK_MSG(proc_count > 0, "sampler needs at least one processor");
  CAFT_CHECK_MSG(failures <= proc_count,
                 "cannot fail more processors than the platform has");
  CAFT_CHECK_MSG(0.0 <= theta_lo && theta_lo <= theta_hi,
                 "crash window requires 0 <= theta_lo <= theta_hi");
}

std::string CrashWindowSampler::name() const {
  std::ostringstream os;
  os << "crash-window(" << failures_ << ", [" << theta_lo_ << ", "
     << theta_hi_ << "])";
  return os.str();
}

void CrashWindowSampler::sample_into(Rng& rng, double* row) const {
  std::fill(row, row + proc_count_, kInf);
  for_each_pick(rng, proc_count_, failures_, [&](std::uint32_t p) {
    row[p] = rng.uniform(theta_lo_, theta_hi_);
  });
}

CorrelatedGroupSampler::CorrelatedGroupSampler(std::size_t proc_count,
                                               std::size_t group_size,
                                               double fail_prob,
                                               double theta_lo,
                                               double theta_hi)
    : proc_count_(proc_count), group_size_(group_size), fail_prob_(fail_prob),
      theta_lo_(theta_lo), theta_hi_(theta_hi) {
  CAFT_CHECK_MSG(proc_count > 0, "sampler needs at least one processor");
  CAFT_CHECK_MSG(group_size >= 1, "group size must be at least 1");
  CAFT_CHECK_MSG(0.0 <= fail_prob && fail_prob <= 1.0,
                 "group failure probability must be in [0, 1]");
  CAFT_CHECK_MSG(0.0 <= theta_lo && theta_lo <= theta_hi,
                 "crash window requires 0 <= theta_lo <= theta_hi");
}

std::size_t CorrelatedGroupSampler::group_count() const {
  return (proc_count_ + group_size_ - 1) / group_size_;
}

std::string CorrelatedGroupSampler::name() const {
  std::ostringstream os;
  os << "correlated-groups(size=" << group_size_ << ", p=" << fail_prob_
     << ")";
  return os.str();
}

void CorrelatedGroupSampler::sample_into(Rng& rng, double* row) const {
  std::fill(row, row + proc_count_, kInf);
  for (std::size_t g = 0; g < group_count(); ++g) {
    if (!rng.bernoulli(fail_prob_)) continue;
    const double theta = theta_lo_ == theta_hi_
                             ? theta_lo_
                             : rng.uniform(theta_lo_, theta_hi_);
    const std::size_t first = g * group_size_;
    const std::size_t last = std::min(first + group_size_, proc_count_);
    std::fill(row + first, row + last, theta);
  }
}

}  // namespace caft
