/// \file probes.hpp
/// The traced run's layer-by-layer pass: one workload's inputs fed through
/// each layer's public entry point on its own, timed from outside, so every
/// per-layer metric has the same definition on every workload and differs
/// only by the inputs it was given.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "dag/generators.hpp"
#include "harness.hpp"
#include "platform/cost_synthesis.hpp"
#include "server/server_wire.hpp"

namespace perfbench {

struct ProbeInputs {
  /// The probe instance: build_instance of these parameters and this seed.
  caft::RandomDagParams dag;
  caft::CostSynthesisParams costs;
  std::size_t procs = 10;
  std::size_t eps = 2;
  std::uint64_t instance_seed = 1;
  /// The campaign probed; algorithms[0] is the algorithm of the campaign,
  /// engine, wire and subprocess probes.
  ftsched::CampaignSpec spec;
  /// Requests the server probe sends, in order, and a key naming each
  /// distinct one (first sight = cold, later sights = warm). Empty: eight
  /// copies of `spec` over the probe instance.
  std::vector<ftsched::server::CampaignRequest> server_requests;
  std::vector<std::size_t> server_keys;
};

struct ProbeEnv {
  std::size_t threads = 1;  ///< the machine's CPUs
  std::string server_bin;
  std::string worker_bin;
  std::string work_dir;
};

/// Runs every probe and returns the per-layer metrics that come from them
/// (every name the `probe` part of BENCHMARK.json's per_layer list holds).
/// Failed probes land in `checks`.
[[nodiscard]] std::vector<Metric> run_probes(const ProbeInputs& inputs,
                                             const ProbeEnv& env,
                                             Checks& checks);

}  // namespace perfbench
