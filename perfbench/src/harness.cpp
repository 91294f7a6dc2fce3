#include "harness.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double percentile(std::vector<double> samples, double fraction) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(fraction > 0.0 && fraction <= 1.0))
    throw std::invalid_argument("percentile fraction outside (0, 1]");
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(samples.size())));
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

std::optional<TailPercentile> tail_percentile(
    const std::vector<double>& samples, std::size_t min_beyond) {
  if (samples.empty()) return std::nullopt;
  for (const double fraction : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    const double value = percentile(samples, fraction);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(samples.begin(), samples.end(),
                      [value](double s) { return s > value; }));
    if (beyond >= min_beyond) return TailPercentile{fraction, value, beyond};
  }
  return std::nullopt;
}

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double peak_rss_mib(int pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) +
                                          "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) failures_.push_back(what);
}

namespace {

void write_json_string(std::ostream& os, const std::string& text) {
  os << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void write_result_line(std::ostream& os, const Checks& checks,
                       const std::vector<Metric>& metrics) {
  std::ostringstream line;
  line << std::setprecision(17);
  line << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<std::size_t>(checks.attempted(), 1)
       << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    if (i != 0) line << ", ";
    write_json_string(line, metric.name);
    // JSON has no inf/nan; a non-finite reading is reported as 0 and the
    // run is already marked incorrect by the caller's checks.
    line << ": {\"value\": "
         << (std::isfinite(metric.value) ? metric.value : 0.0)
         << ", \"unit\": ";
    write_json_string(line, metric.unit);
    line << "}";
  }
  line << "}}";
  os << line.str() << "\n";
}

void print_metric_table(std::ostream& os, const std::string& title,
                        const std::vector<Metric>& metrics) {
  os << "== " << title << "\n";
  std::size_t width = 0;
  for (const Metric& metric : metrics)
    width = std::max(width, metric.name.size());
  for (const Metric& metric : metrics) {
    os << "  " << std::left << std::setw(static_cast<int>(width) + 2)
       << metric.name << std::right << std::setw(16) << std::setprecision(6)
       << metric.value << "  " << metric.unit << "\n";
  }
}

}  // namespace perfbench
