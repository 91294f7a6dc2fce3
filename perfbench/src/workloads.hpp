/// \file workloads.hpp
/// The benchmark's four workloads (README.md beside this directory says
/// why each was chosen). Every workload follows the same life cycle:
///
///   setup()      build the inputs from the workload seed; run several
///                times for the setup_s median (teardown() before each)
///   measure()    the timed operations, interleaved across backends
///                until the run's seconds are spent
///   verify()     correctness: budgets executed, cross-backend byte
///                identity, in-process references, Prop. 5.2; returns the
///                digest of the outputs the committed digests pin
///   end_to_end() the end-to-end metrics of the measured operations
///
/// In-process campaigns and the experiment runner use every CPU (`threads`)
/// and one thread; nothing here changes library code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"

namespace perfbench {

struct Env {
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::string server_bin;
  std::string worker_bin;
  std::string work_dir;
  /// Corrupt one output byte before the checks (the self-test's proof that
  /// a wrong output fails the run).
  bool perturb_output = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual void setup() = 0;
  virtual void teardown() {}
  /// Runs the timed operations for `seconds`; `single_pass` runs exactly
  /// one operation per backend instead (the traced run's whole path).
  virtual void measure(double seconds, bool single_pass) = 0;
  [[nodiscard]] virtual std::string verify(Checks& checks) = 0;
  /// Every end-to-end metric except setup_s.
  [[nodiscard]] virtual std::vector<Metric> end_to_end() const = 0;
  /// Extra human-readable lines (backends outside the metric set, tails).
  virtual void print_details(std::ostream& os) const = 0;
  [[nodiscard]] virtual ProbeInputs probe_inputs() const = 0;
};

/// The instance of every campaign-shaped input and of the probes: the
/// graph from `seed`, the costs from a second stream derived from it. The
/// halves are callable alone so the probes can time each on the same draws.
[[nodiscard]] caft::TaskGraph instance_graph(const caft::RandomDagParams& dag,
                                             std::uint64_t seed);
[[nodiscard]] caft::CostModel instance_costs(
    const caft::TaskGraph& graph, const caft::Platform& platform,
    const caft::CostSynthesisParams& costs, std::uint64_t seed);
[[nodiscard]] std::unique_ptr<ftsched::Instance> build_instance(
    const caft::RandomDagParams& dag, const caft::CostSynthesisParams& costs,
    std::size_t procs, std::size_t eps, std::uint64_t seed);

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Env& env);

}  // namespace perfbench
