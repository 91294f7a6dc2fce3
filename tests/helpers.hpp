/// \file helpers.hpp
/// Shared fixtures for the scheduler-layer tests: (graph, platform, costs)
/// bundles with stable addresses (CostModel keeps a pointer to its Platform,
/// so both live behind unique_ptr) and convenience runners, plus the
/// campaign reference: the records and summary a campaign must reproduce,
/// replayed one scenario at a time through simulate_crashes.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/scenario_sampler.hpp"
#include "campaign/stats.hpp"
#include "common/rng.hpp"
#include "dag/generators.hpp"
#include "platform/cost_synthesis.hpp"
#include "platform/platform.hpp"
#include "sim/crash_sim.hpp"

namespace caft::test {

/// One scheduling scenario. Movable: platform/costs have stable addresses.
/// (Named Scenario, not Setup: gtest reserves Setup inside TEST bodies.)
struct Scenario {
  TaskGraph graph;
  std::unique_ptr<Platform> platform;
  std::unique_ptr<CostModel> costs;
};

/// Homogeneous scenario: every task costs `exec` everywhere, every link has
/// unit delay `delay` (hand-computable schedules).
inline Scenario uniform_setup(TaskGraph graph, std::size_t procs, double exec,
                           double delay) {
  Scenario s;
  s.graph = std::move(graph);
  s.platform = std::make_unique<Platform>(procs);
  s.costs = std::make_unique<CostModel>(
      uniform_costs(s.graph, *s.platform, exec, delay));
  return s;
}

/// Paper-protocol random scenario at the given granularity.
inline Scenario random_setup(std::uint64_t seed, std::size_t procs,
                          double granularity,
                          RandomDagParams dag_params = RandomDagParams{}) {
  Rng rng(seed);
  Scenario s;
  s.graph = random_dag(dag_params, rng);
  s.platform = std::make_unique<Platform>(procs);
  CostSynthesisParams params;
  params.granularity = granularity;
  s.costs = std::make_unique<CostModel>(
      synthesize_costs(s.graph, *s.platform, params, rng));
  return s;
}

/// Random scenario over an arbitrary graph family.
inline Scenario graph_setup(TaskGraph graph, std::uint64_t seed,
                         std::size_t procs, double granularity) {
  Rng rng(seed);
  Scenario s;
  s.graph = std::move(graph);
  s.platform = std::make_unique<Platform>(procs);
  CostSynthesisParams params;
  params.granularity = granularity;
  s.costs = std::make_unique<CostModel>(
      synthesize_costs(s.graph, *s.platform, params, rng));
  return s;
}

/// The documented θ-quantization rule, written out independently of the
/// campaign executor: a finite positive crash time moves to the midpoint
/// of its bucket.
inline double snapped(double t, double width) {
  if (!(t > 0.0) || std::isinf(t)) return t;
  return (std::floor(t / width) + 0.5) * width;
}

/// Draws from `base`, then snaps every crash time by hand.
class PreSnappedSampler final : public ScenarioSampler {
 public:
  PreSnappedSampler(const ScenarioSampler& base, double width)
      : base_(base), width_(width) {}

  [[nodiscard]] std::string name() const override { return base_.name(); }
  [[nodiscard]] std::size_t proc_count() const override {
    return base_.proc_count();
  }
  void sample_into(Rng& rng, double* row) const override {
    base_.sample_into(rng, row);
    for (std::size_t p = 0; p < proc_count(); ++p)
      row[p] = snapped(row[p], width_);
  }

 private:
  const ScenarioSampler& base_;
  double width_;
};

/// The campaign reference: the records of replays [first, first + count)
/// of the canonical scenario stream of `seed` — master Rng(seed), one
/// split per replay, each scenario snapped by hand when `width` > 0 —
/// each replayed on its own through simulate_crashes. It shares no
/// grouping, record memo or prefix snapshot with the campaign executor,
/// so run_campaign_block must match it record for record.
inline std::vector<ReplayRecord> reference_records(
    const Schedule& schedule, const CostModel& costs,
    const ScenarioSampler& sampler, std::uint64_t seed, std::size_t first,
    std::size_t count, double width = 0.0) {
  const PreSnappedSampler snapping(sampler, width);
  const ScenarioSampler& draw =
      width > 0.0 ? static_cast<const ScenarioSampler&>(snapping) : sampler;
  Rng master(seed);
  for (std::size_t i = 0; i < first; ++i) (void)master.split();
  std::vector<ReplayRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng stream = master.split();
    const CrashScenario scenario = draw.sample(stream);
    const CrashResult result = simulate_crashes(schedule, costs, scenario);
    ReplayRecord record;
    record.success = result.success;
    record.order_deadlock = result.order_deadlock;
    record.latency = result.latency;
    record.delivered_messages = result.delivered_messages;
    record.order_relaxations = result.order_relaxations;
    record.failed_count = scenario.failed_count();
    records.push_back(record);
  }
  return records;
}

/// The summary run_campaign must reproduce: reference_records over
/// [0, options.replays) folded in replay order. Reads only the options'
/// seed, replays, quantiles and θ-bucket width.
inline CampaignSummary reference_summary(const Schedule& schedule,
                                         const CostModel& costs,
                                         const ScenarioSampler& sampler,
                                         const CampaignOptions& options) {
  CampaignAccumulator accumulator(schedule.eps(), options.quantiles);
  accumulator.set_sampler_name(sampler.name());
  for (const ReplayRecord& record :
       reference_records(schedule, costs, sampler, options.seed, 0,
                         options.replays, options.theta_bucket_width))
    fold_replay_record(accumulator, record);
  return accumulator.summary();
}

}  // namespace caft::test
