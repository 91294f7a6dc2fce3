// Tests for the Monte-Carlo fault-injection campaign (campaign/): scenario
// samplers, streaming statistics (Wilson interval, P² quantiles), the
// parallel executor's determinism and Proposition 5.2 guarantee. The
// θ-quantization transform and the record memo are covered by
// test_shared_memo.cpp.
#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/caft.hpp"
#include "algo/ftsa.hpp"
#include "campaign/scenario_sampler.hpp"
#include "campaign/stats.hpp"
#include "dag/generators.hpp"
#include "helpers.hpp"
#include "obs/obs.hpp"

namespace caft {
namespace {

using test::Scenario;
using test::random_setup;

Schedule caft_for(const Scenario& s, std::size_t eps) {
  CaftOptions options;
  options.base = SchedulerOptions{eps, CommModelKind::kOnePort};
  return caft_schedule(s.graph, *s.platform, *s.costs, options);
}

// ---------------------------------------------------------------- samplers

TEST(ScenarioSamplers, UniformKFailsExactlyK) {
  const UniformKSampler sampler(10, 3);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const CrashScenario scenario = sampler.sample(rng);
    EXPECT_EQ(scenario.proc_count(), 10u);
    EXPECT_EQ(scenario.failed_count(), 3u);
    for (std::size_t p = 0; p < 10; ++p) {
      const double t = scenario.crash_time(ProcId(p));
      EXPECT_TRUE(t == 0.0 || std::isinf(t));  // dead at 0 or never
    }
  }
}

TEST(ScenarioSamplers, UniformKCoversAllProcessors) {
  const UniformKSampler sampler(6, 1);
  Rng rng(7);
  std::vector<bool> hit(6, false);
  for (int i = 0; i < 200; ++i) {
    const CrashScenario scenario = sampler.sample(rng);
    for (std::size_t p = 0; p < 6; ++p)
      if (scenario.dead_from_start(ProcId(p))) hit[p] = true;
  }
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(), [](bool b) { return b; }));
}

TEST(ScenarioSamplers, SamplersAreDeterministicPerStream) {
  const ExponentialLifetimeSampler exp_sampler(8, 0.01);
  const WeibullLifetimeSampler weibull_sampler(8, 1.5, 200.0);
  const CrashWindowSampler window_sampler(8, 2, 10.0, 50.0);
  const CorrelatedGroupSampler group_sampler(8, 3, 0.5, 0.0, 20.0);
  for (const ScenarioSampler* sampler :
       {static_cast<const ScenarioSampler*>(&exp_sampler),
        static_cast<const ScenarioSampler*>(&weibull_sampler),
        static_cast<const ScenarioSampler*>(&window_sampler),
        static_cast<const ScenarioSampler*>(&group_sampler)}) {
    Rng a(99), b(99);
    for (int i = 0; i < 20; ++i) {
      const CrashScenario sa = sampler->sample(a);
      const CrashScenario sb = sampler->sample(b);
      for (std::size_t p = 0; p < 8; ++p)
        EXPECT_EQ(sa.crash_time(ProcId(p)), sb.crash_time(ProcId(p)))
            << sampler->name();
    }
  }
}

TEST(ScenarioSamplers, LifetimesArePositive) {
  const ExponentialLifetimeSampler exp_sampler(5, 0.1);
  const WeibullLifetimeSampler weibull_sampler(5, 0.8, 50.0);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    for (const ScenarioSampler* sampler :
         {static_cast<const ScenarioSampler*>(&exp_sampler),
          static_cast<const ScenarioSampler*>(&weibull_sampler)}) {
      const CrashScenario scenario = sampler->sample(rng);
      for (std::size_t p = 0; p < 5; ++p)
        EXPECT_GT(scenario.crash_time(ProcId(p)), 0.0);
    }
  }
}

TEST(ScenarioSamplers, HorizonCensorsToNeverFails) {
  // A tiny horizon turns almost every draw into +inf (mean lifetime 1000).
  const ExponentialLifetimeSampler sampler(20, 0.001, 1e-6);
  Rng rng(11);
  std::size_t failed = 0;
  for (int i = 0; i < 20; ++i) failed += sampler.sample(rng).failed_count();
  EXPECT_EQ(failed, 0u);
}

TEST(ScenarioSamplers, WindowDrawsInsideWindow) {
  const CrashWindowSampler sampler(10, 4, 5.0, 9.0);
  Rng rng(21);
  for (int i = 0; i < 50; ++i) {
    const CrashScenario scenario = sampler.sample(rng);
    EXPECT_EQ(scenario.failed_count(), 4u);
    for (std::size_t p = 0; p < 10; ++p) {
      const double t = scenario.crash_time(ProcId(p));
      if (std::isinf(t)) continue;
      EXPECT_GE(t, 5.0);
      EXPECT_LT(t, 9.0);
    }
  }
}

TEST(ScenarioSamplers, GroupsFailAsUnits) {
  const CorrelatedGroupSampler sampler(9, 3, 0.5);
  Rng rng(31);
  bool saw_failure = false;
  for (int i = 0; i < 50; ++i) {
    const CrashScenario scenario = sampler.sample(rng);
    EXPECT_EQ(scenario.failed_count() % 3, 0u);  // whole groups only
    for (std::size_t g = 0; g < 3; ++g) {
      const bool first = scenario.dead_from_start(ProcId(3 * g));
      for (std::size_t j = 1; j < 3; ++j)
        EXPECT_EQ(scenario.dead_from_start(ProcId(3 * g + j)), first);
    }
    saw_failure = saw_failure || scenario.failed_count() > 0;
  }
  EXPECT_TRUE(saw_failure);
}

// The row sample_into writes and the CrashScenario sample() builds are the
// same scenario bit for bit, and both leave the Rng in the same state. For
// the two samplers that pick processors, both also equal the draws of
// Rng::sample_without_replacement, the allocating routine they replaced.
// Edge shapes: k = 0, k = m, m = 1 and m = 64.
TEST(ScenarioSamplers, SampleIntoMatchesSampleBitForBit) {
  std::vector<std::unique_ptr<ScenarioSampler>> samplers;
  for (const std::size_t m : {1u, 7u, 64u}) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, m / 2, m}) {
      samplers.push_back(std::make_unique<UniformKSampler>(m, k));
      samplers.push_back(
          std::make_unique<CrashWindowSampler>(m, k, 10.0, 50.0));
      samplers.push_back(std::make_unique<CrashWindowSampler>(m, k, 0.0, 0.0));
    }
    samplers.push_back(std::make_unique<ExponentialLifetimeSampler>(m, 0.02));
    samplers.push_back(
        std::make_unique<ExponentialLifetimeSampler>(m, 0.02, 40.0));
    samplers.push_back(
        std::make_unique<WeibullLifetimeSampler>(m, 1.5, 60.0, 80.0));
    for (const double p : {0.0, 0.5, 1.0}) {  // no group, some, every group
      samplers.push_back(
          std::make_unique<CorrelatedGroupSampler>(m, 3, p, 5.0, 25.0));
      samplers.push_back(std::make_unique<CorrelatedGroupSampler>(m, 1, p));
    }
  }
  const auto bits = [](double t) { return std::bit_cast<std::uint64_t>(t); };
  for (const auto& sampler : samplers) {
    SCOPED_TRACE(sampler->name() + " m=" +
                 std::to_string(sampler->proc_count()));
    const std::size_t m = sampler->proc_count();
    std::vector<double> row(m);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      Rng into(seed), wrapped(seed);
      sampler->sample_into(into, row.data());
      const CrashScenario scenario = sampler->sample(wrapped);
      ASSERT_EQ(scenario.proc_count(), m);
      for (std::size_t p = 0; p < m; ++p)
        ASSERT_EQ(bits(row[p]), bits(scenario.crash_time(ProcId(p))))
            << "seed " << seed << " proc " << p;
      ASSERT_EQ(into(), wrapped());  // same draws consumed
    }
  }

  // Reference draws through the allocating sample_without_replacement; 300
  // processors also cover an index pool too large for the stack.
  for (const std::size_t m : {1u, 7u, 64u, 300u}) {
    for (const std::size_t k : {std::size_t{0}, m / 2, m}) {
      const UniformKSampler uniform(m, k);
      const CrashWindowSampler window(m, k, 10.0, 50.0);
      std::vector<double> row(m);
      for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng reference(seed), drawn(seed);
        std::vector<double> expected(m, std::numeric_limits<double>::infinity());
        for (const std::size_t p : reference.sample_without_replacement(m, k))
          expected[p] = 0.0;
        uniform.sample_into(drawn, row.data());
        ASSERT_EQ(row, expected) << "uniform-k m=" << m << " k=" << k;
        ASSERT_EQ(reference(), drawn());

        std::fill(expected.begin(), expected.end(),
                  std::numeric_limits<double>::infinity());
        for (const std::size_t p : reference.sample_without_replacement(m, k))
          expected[p] = reference.uniform(10.0, 50.0);
        window.sample_into(drawn, row.data());
        ASSERT_EQ(row, expected) << "crash-window m=" << m << " k=" << k;
        ASSERT_EQ(reference(), drawn());
      }
    }
  }
}

TEST(ScenarioSamplers, RejectsBadParameters) {
  EXPECT_THROW(UniformKSampler(4, 5), CheckError);
  EXPECT_THROW(ExponentialLifetimeSampler(4, 0.0), CheckError);
  EXPECT_THROW(WeibullLifetimeSampler(4, -1.0, 10.0), CheckError);
  EXPECT_THROW(CrashWindowSampler(4, 1, 5.0, 2.0), CheckError);
  EXPECT_THROW(CorrelatedGroupSampler(4, 0, 0.5), CheckError);
  EXPECT_THROW(CorrelatedGroupSampler(4, 2, 1.5), CheckError);
}

// ------------------------------------------------------------------- stats

TEST(CampaignStats, WilsonIntervalBrackets) {
  const WilsonInterval ci = wilson_interval(90, 100);
  EXPECT_GT(ci.low, 0.8);
  EXPECT_LT(ci.low, 0.9);
  EXPECT_GT(ci.high, 0.9);
  EXPECT_LT(ci.high, 1.0);
}

TEST(CampaignStats, WilsonIntervalStaysInUnitRange) {
  const WilsonInterval all = wilson_interval(50, 50);
  EXPECT_LT(all.low, 1.0);   // finite sample: can't certify certainty
  EXPECT_NEAR(all.high, 1.0, 1e-12);
  const WilsonInterval none = wilson_interval(0, 50);
  EXPECT_NEAR(none.low, 0.0, 1e-12);
  EXPECT_GT(none.high, 0.0);
  const WilsonInterval empty = wilson_interval(0, 0);
  EXPECT_EQ(empty.low, 0.0);
  EXPECT_EQ(empty.high, 1.0);
}

TEST(CampaignStats, WilsonIntervalTightensWithSamples) {
  const WilsonInterval small = wilson_interval(9, 10);
  const WilsonInterval large = wilson_interval(900, 1000);
  EXPECT_LT(large.high - large.low, small.high - small.low);
}

TEST(CampaignStats, P2ExactForSmallSamples) {
  P2Quantile median(0.5);
  median.add(3.0);
  median.add(1.0);
  median.add(2.0);
  EXPECT_DOUBLE_EQ(median.value(), 2.0);
}

TEST(CampaignStats, P2MedianOfUniformDraws) {
  P2Quantile median(0.5);
  P2Quantile p90(0.9);
  Rng rng(47);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform01();
    median.add(x);
    p90.add(x);
  }
  EXPECT_NEAR(median.value(), 0.5, 0.02);
  EXPECT_NEAR(p90.value(), 0.9, 0.02);
}

TEST(CampaignStats, P2TracksShiftedExponential) {
  // Against the closed form: the q-quantile of Exp(1) is -ln(1-q).
  P2Quantile p99(0.99);
  Rng rng(53);
  for (int i = 0; i < 50000; ++i) p99.add(rng.exponential(1.0));
  EXPECT_NEAR(p99.value(), -std::log(0.01), 0.25);
}

TEST(CampaignStats, P2SurvivesIdenticalValues) {
  // Degenerate stream: every observation identical. Marker heights all
  // collide, so the parabolic update's numerator differences cancel; the
  // estimator must clamp to the (well-conditioned) linear fallback and
  // report the exact value, never NaN/inf.
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    P2Quantile est(q);
    for (int i = 0; i < 1000; ++i) est.add(42.5);
    EXPECT_TRUE(std::isfinite(est.value())) << "q=" << q;
    EXPECT_DOUBLE_EQ(est.value(), 42.5) << "q=" << q;
  }
}

TEST(CampaignStats, P2SurvivesNearDuplicateValues) {
  // Long runs of near-identical latencies (ulp-scale jitter around a few
  // plateaus) — the regime where height gaps underflow while position gaps
  // stay integral. The estimate must stay finite and inside the sample
  // range, and land on the dominant plateau.
  P2Quantile median(0.5);
  Rng rng(99);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < 1000; ++i) {
    const double plateau = (i % 10 == 0) ? 100.0 : 50.0;
    const double x = plateau * (1.0 + 1e-15 * rng.uniform01());
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    median.add(x);
    ASSERT_TRUE(std::isfinite(median.value())) << "at observation " << i;
  }
  EXPECT_GE(median.value(), lo);
  EXPECT_LE(median.value(), hi);
  EXPECT_NEAR(median.value(), 50.0, 1e-3);
}

TEST(CampaignStats, P2SurvivesExtremeMagnitudes) {
  // Huge magnitudes can overflow the parabolic step to ±inf; the clamp must
  // keep markers bracketed and the estimate finite.
  P2Quantile p90(0.9);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i)
    p90.add((i % 2 == 0 ? 1.0 : 1e300) * (1.0 + rng.uniform01()));
  EXPECT_TRUE(std::isfinite(p90.value()));
}

TEST(CampaignStats, StreamingMomentsMatchDirectComputation) {
  StreamingMoments moments;
  const std::vector<double> xs = {4.0, 7.0, 13.0, 16.0};
  for (const double x : xs) moments.add(x);
  EXPECT_EQ(moments.count(), 4u);
  EXPECT_DOUBLE_EQ(moments.mean(), 10.0);
  EXPECT_DOUBLE_EQ(moments.min(), 4.0);
  EXPECT_DOUBLE_EQ(moments.max(), 16.0);
  EXPECT_NEAR(moments.stddev(), std::sqrt(30.0), 1e-12);  // sample variance
}

TEST(CampaignStats, TableAndJsonRender) {
  CampaignAccumulator acc(1, {0.5});
  CrashResult ok;
  ok.success = true;
  ok.latency = 10.0;
  ok.delivered_messages = 5;
  acc.add(1, ok);
  CrashResult lost;
  lost.success = false;
  acc.add(2, lost);
  acc.set_sampler_name("test");
  const Table table = campaign_table("t", {{"X", acc.summary()}});
  EXPECT_EQ(table.row_count(), 1u);
  std::ostringstream json;
  table.write_json(json);
  EXPECT_NE(json.str().find("\"success_rate\": 0.5"), std::string::npos);
}

// ---------------------------------------------------------------- executor

TEST(Campaign, SummaryIdenticalAcrossThreadCounts) {
  Scenario s = random_setup(101, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  // Mean lifetime of 20 makespans: most replays succeed (so the latency
  // stream is non-trivial) while a visible minority lose work.
  const ExponentialLifetimeSampler sampler(
      10, 0.05 / schedule.zero_crash_latency());

  CampaignOptions one;
  one.replays = 300;
  one.threads = 1;
  const CampaignSummary a = run_campaign(schedule, *s.costs, sampler, one);

  CampaignOptions four = one;
  four.threads = 4;
  const CampaignSummary b = run_campaign(schedule, *s.costs, sampler, four);

  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.successes, b.successes);
  ASSERT_GT(a.successes, 0u);
  EXPECT_EQ(a.latency.mean(), b.latency.mean());  // bit-for-bit
  EXPECT_EQ(a.latency.min(), b.latency.min());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency.stddev(), b.latency.stddev());
  ASSERT_EQ(a.latency_quantiles.size(), b.latency_quantiles.size());
  for (std::size_t i = 0; i < a.latency_quantiles.size(); ++i)
    EXPECT_EQ(a.latency_quantiles[i].value, b.latency_quantiles[i].value);
  EXPECT_EQ(a.delivered_messages.mean(), b.delivered_messages.mean());
  EXPECT_EQ(a.order_relaxations, b.order_relaxations);
  EXPECT_EQ(a.order_deadlocks, b.order_deadlocks);
}

TEST(Campaign, SummaryIdenticalAcrossBlockSizes) {
  Scenario s = random_setup(102, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const UniformKSampler sampler(10, 1);

  CampaignOptions small;
  small.replays = 257;
  small.block = 16;
  small.threads = 2;
  CampaignOptions big = small;
  big.block = 1024;
  big.threads = 3;
  const CampaignSummary a = run_campaign(schedule, *s.costs, sampler, small);
  const CampaignSummary b = run_campaign(schedule, *s.costs, sampler, big);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency_quantiles[0].value, b.latency_quantiles[0].value);
}

// Process scale-out contract (api/session.hpp): any partition of the
// canonical scenario stream into contiguous blocks — computed in any order,
// with any per-block thread count — yields record streams whose
// concatenation is bit-identical to the whole-campaign stream, and whose
// canonical-order fold reproduces run_campaign's summary exactly.
TEST(Campaign, BlockPartitionReproducesRecordStream) {
  Scenario s = random_setup(105, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const ExponentialLifetimeSampler sampler(
      10, 0.05 / schedule.zero_crash_latency());

  CampaignOptions options;
  options.replays = 211;
  options.threads = 2;
  const std::vector<ReplayRecord> whole =
      run_campaign_block(schedule, *s.costs, sampler, options, 0, 211);
  ASSERT_EQ(whole.size(), 211u);

  // Uneven partition, blocks computed out of order, varying thread counts
  // and block sizes — none of it may show in the stitched stream.
  std::vector<ReplayRecord> stitched(whole.size());
  const std::vector<std::pair<std::size_t, std::size_t>> blocks = {
      {128, 83}, {1, 127}, {0, 1}};
  for (const auto& [first, count] : blocks) {
    CampaignOptions block_options = options;
    block_options.threads = 1 + first % 3;
    block_options.block = 64;
    const std::vector<ReplayRecord> records = run_campaign_block(
        schedule, *s.costs, sampler, block_options, first, count);
    ASSERT_EQ(records.size(), count);
    std::copy(records.begin(), records.end(),
              stitched.begin() + static_cast<std::ptrdiff_t>(first));
  }
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(whole[i].success, stitched[i].success) << i;
    EXPECT_EQ(whole[i].order_deadlock, stitched[i].order_deadlock) << i;
    EXPECT_EQ(whole[i].latency, stitched[i].latency) << i;  // bit-for-bit
    EXPECT_EQ(whole[i].delivered_messages, stitched[i].delivered_messages)
        << i;
    EXPECT_EQ(whole[i].order_relaxations, stitched[i].order_relaxations)
        << i;
    EXPECT_EQ(whole[i].failed_count, stitched[i].failed_count) << i;
  }

  // Folding the stitched stream in canonical order is the coordinator's
  // half; it must land on run_campaign's summary bit-for-bit.
  const CampaignSummary reference =
      run_campaign(schedule, *s.costs, sampler, options);
  CampaignAccumulator accumulator(schedule.eps(), options.quantiles);
  accumulator.set_sampler_name(sampler.name());
  for (const ReplayRecord& record : stitched)
    fold_replay_record(accumulator, record);
  const CampaignSummary folded = accumulator.summary();
  EXPECT_EQ(reference.replays, folded.replays);
  EXPECT_EQ(reference.successes, folded.successes);
  EXPECT_EQ(reference.success_ci.low, folded.success_ci.low);
  EXPECT_EQ(reference.success_ci.high, folded.success_ci.high);
  EXPECT_EQ(reference.latency.mean(), folded.latency.mean());
  EXPECT_EQ(reference.latency.stddev(), folded.latency.stddev());
  ASSERT_EQ(reference.latency_quantiles.size(),
            folded.latency_quantiles.size());
  for (std::size_t i = 0; i < reference.latency_quantiles.size(); ++i)
    EXPECT_EQ(reference.latency_quantiles[i].value,
              folded.latency_quantiles[i].value);
  EXPECT_EQ(reference.delivered_messages.mean(),
            folded.delivered_messages.mean());
  EXPECT_EQ(reference.max_failed, folded.max_failed);
  EXPECT_EQ(reference.sampler, folded.sampler);
}

// Proposition 5.2: a schedule built for ε failures survives *every* crash
// set of at most ε processors — so a uniform-k campaign with k <= ε must
// report an empirical success rate of exactly 1.
TEST(Campaign, WithinEpsilonAlwaysSucceeds) {
  for (std::uint64_t seed : {103, 104}) {
    Scenario s = random_setup(seed, 10, 0.7);
    const Schedule schedule = caft_for(s, 2);
    for (std::size_t k : {1, 2}) {
      const UniformKSampler sampler(10, k);
      CampaignOptions options;
      options.replays = 200;
      const CampaignSummary summary =
          run_campaign(schedule, *s.costs, sampler, options);
      EXPECT_EQ(summary.successes, summary.replays) << "k=" << k;
      EXPECT_DOUBLE_EQ(summary.success_rate(), 1.0);
      EXPECT_EQ(summary.replays_within_eps, summary.replays);
      EXPECT_EQ(summary.successes_within_eps, summary.replays);
      EXPECT_EQ(summary.max_failed, k);
    }
  }
}

// Under stochastic lifetimes some scenarios exceed ε failures, but the
// within-ε split must still show zero losses among the <= ε draws (FTSA
// carries the same guarantee).
TEST(Campaign, WithinEpsilonSplitHoldsUnderLifetimes) {
  Scenario s = random_setup(105, 10, 1.0);
  const Schedule schedule = ftsa_schedule(
      s.graph, *s.platform, *s.costs, SchedulerOptions{1, CommModelKind::kOnePort});
  // Per-processor failure probability within the makespan horizon of
  // 1 - e^-0.2 ~ 18%: a third of the draws stay within ε = 1 while the
  // majority land beyond it, populating both sides of the split.
  const double makespan = schedule.zero_crash_latency();
  const ExponentialLifetimeSampler sampler(10, 0.2 / makespan, makespan);
  CampaignOptions options;
  options.replays = 300;
  const CampaignSummary summary =
      run_campaign(schedule, *s.costs, sampler, options);
  ASSERT_GT(summary.replays_within_eps, 0u);  // split must not be vacuous
  EXPECT_LT(summary.replays_within_eps, summary.replays);
  EXPECT_EQ(summary.successes_within_eps, summary.replays_within_eps);
  EXPECT_GT(summary.max_failed, 1u);          // the tail beyond ε was reached
  EXPECT_LT(summary.successes, summary.replays);  // and some replays died
  EXPECT_LE(summary.success_ci.low, summary.success_rate());
  EXPECT_GE(summary.success_ci.high, summary.success_rate());
}

TEST(Campaign, ZeroFailureSamplerReproducesCommittedLatency) {
  Scenario s = random_setup(106, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const UniformKSampler sampler(10, 0);
  CampaignOptions options;
  options.replays = 8;
  const CampaignSummary summary =
      run_campaign(schedule, *s.costs, sampler, options);
  EXPECT_EQ(summary.successes, summary.replays);
  EXPECT_NEAR(summary.latency.mean(), schedule.zero_crash_latency(), 1e-6);
  EXPECT_NEAR(summary.latency.min(), summary.latency.max(), 1e-12);
  EXPECT_EQ(summary.order_relaxations, 0u);
}

TEST(Campaign, RejectsMismatchedSamplerSize) {
  Scenario s = random_setup(107, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const UniformKSampler sampler(9, 1);
  EXPECT_THROW(run_campaign(schedule, *s.costs, sampler, CampaignOptions{}),
               CheckError);
}

TEST(Campaign, RejectsThreadsAndBlockAboveCaps) {
  // Threads size the per-worker scratches and the block sizes the wave's
  // crash-time matrix: both are bounded before anything is allocated.
  Scenario s = random_setup(108, 4, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const UniformKSampler sampler(4, 1);
  CampaignOptions options;
  options.replays = 10;
  options.block = kMaxCampaignBlock + 1;
  EXPECT_THROW(run_campaign(schedule, *s.costs, sampler, options),
               CheckError);
  options.block = 64;
  options.threads = kMaxCampaignThreads + 1;
  EXPECT_THROW(run_campaign(schedule, *s.costs, sampler, options),
               CheckError);
  options.threads = kMaxCampaignThreads;
  EXPECT_EQ(run_campaign(schedule, *s.costs, sampler, options).replays, 10u);
}

TEST(CampaignObs, ReplaysPerSecondGaugeCountsExecutedReplays) {
  // An early-stopped campaign executes only a prefix of its budget; the
  // throughput gauge must divide what ran by how long it took.
  const Scenario s = random_setup(63, 8, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const UniformKSampler sampler(8, 1);
  CampaignOptions options;
  options.replays = 200000;
  options.block = 256;
  options.target_ci_width = 0.2;
  obs::Registry& registry = obs::Registry::global();
  registry.set_enabled(true);
  CampaignTelemetry telemetry;
  (void)run_campaign(schedule, *s.costs, sampler, options, &telemetry);
  const double gauge =
      registry.snapshot().gauge_value("campaign.replays_per_second");
  registry.set_enabled(false);
  ASSERT_LT(telemetry.replays, options.replays);  // really stopped early
  ASSERT_GT(telemetry.wall_seconds, 0.0);
  EXPECT_EQ(gauge, static_cast<double>(telemetry.replays) /
                       telemetry.wall_seconds);
}

TEST(CampaignObs, ReplayWorkCountersAreIndependentOfThreadCount) {
  // The sim.replay.* counters sum every worker's Scratch once, after the
  // range: the same crash-window campaign reports the same engine work at
  // one thread and at three.
  const Scenario s = random_setup(64, 8, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const CrashWindowSampler sampler(8, 2, 0.0, schedule.horizon());
  obs::Registry& registry = obs::Registry::global();
  const char* const names[] = {"sim.replay.events", "sim.replay.recomputes",
                               "sim.replay.handoff_checks",
                               "sim.replay.relaxation_scans"};
  const auto read = [&] {
    const obs::MetricsSnapshot snapshot = registry.snapshot();
    std::vector<std::uint64_t> values;
    for (const char* name : names)
      values.push_back(snapshot.counter_value(name));
    return values;
  };
  const auto work = [&](std::size_t threads) {
    CampaignOptions options;
    options.replays = 300;
    options.block = 64;
    options.threads = threads;
    registry.set_enabled(true);
    std::vector<std::uint64_t> values = read();
    (void)run_campaign(schedule, *s.costs, sampler, options);
    const std::vector<std::uint64_t> after = read();
    registry.set_enabled(false);
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] = after[i] - values[i];
    return values;
  };
  const std::vector<std::uint64_t> one = work(1);
  EXPECT_GT(one[0], 0u);
  EXPECT_GT(one[1], 0u);
  EXPECT_EQ(work(3), one);
}

}  // namespace
}  // namespace caft
