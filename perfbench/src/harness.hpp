/// \file harness.hpp
/// Measurement plumbing shared by every workload of the benchmark: clocks,
/// order statistics, the tail-percentile rule, content digests, memory
/// readings, the correctness ledger and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point begin);

/// Median of `samples` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank percentile: the smallest sample with at least `fraction` of
/// the samples at or below it. `fraction` in (0, 1].
[[nodiscard]] double percentile(std::vector<double> samples, double fraction);

/// A percentile together with how many samples lie strictly above it.
struct TailPercentile {
  double fraction = 0.0;  ///< e.g. 0.9 for p90
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples strictly greater than `value`
};

/// The highest of p99, p95, p90, p75 and p50 that leaves at least
/// `min_beyond` samples above it — the tail a run can support. Empty when
/// even the median has fewer than `min_beyond` samples above it.
[[nodiscard]] std::optional<TailPercentile> tail_percentile(
    const std::vector<double>& samples, std::size_t min_beyond = 10);

/// Digests (digests.txt) are the library's FNV-1a 64 (common/hash.hpp)
/// printed as 16 hex digits.
using caft::fnv1a64;
[[nodiscard]] std::string hex64(std::uint64_t value);

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed (instances, campaign streams, request mix) so none of them shares
/// a stream with another.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// Peak resident set (VmHWM) of process `pid` (0 = this process), in MiB;
/// 0 when /proc is unavailable.
[[nodiscard]] double peak_rss_mib(int pid = 0);

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] std::size_t online_cpus();

/// Every correctness check of a run lands here. A failed check is a failed
/// operation: it raises `failed`, makes the result `correct: false` and the
/// benchmark's exit code non-zero.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failures_.size(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::size_t attempted_ = 0;
  std::vector<std::string> failures_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: `{"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {name: {"value": v, "unit": u}, ...}}` with every value at
/// full precision.
void write_result_line(std::ostream& os, const Checks& checks,
                       const std::vector<Metric>& metrics);

/// Human-readable aligned metric table (name, value, unit).
void print_metric_table(std::ostream& os, const std::string& title,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
