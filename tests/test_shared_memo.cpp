// Tests for the campaign executor's shared record memo and its θ-quantization
// transform (campaign/campaign.cpp, run_replay_range):
//
//  - campaigns fold to summaries byte-identical to the simulate_crashes
//    reference (tests/helpers.hpp) across samplers and 1/2/4/8 worker
//    threads while the memo answers repeats from earlier waves (memo hits
//    are unobservable);
//  - θ-quantization is exactly the documented scenario transform: a bucketed
//    campaign equals the reference over draws snapped by hand, at any
//    stream offset, and drift shrinks with the bucket width;
//  - the memo counters are exact at every thread count and the memo stays
//    under its entry cap over 10^6 replays (clear-on-threshold eviction).
#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algo/caft.hpp"
#include "campaign/scenario_sampler.hpp"
#include "dag/generators.hpp"
#include "helpers.hpp"

namespace caft {
namespace {

using test::Scenario;
using test::random_setup;
using test::snapped;

Schedule caft_for(const Scenario& s, std::size_t eps) {
  CaftOptions options;
  options.base = SchedulerOptions{eps, CommModelKind::kOnePort};
  return caft_schedule(s.graph, *s.platform, *s.costs, options);
}

void expect_summaries_identical(const CampaignSummary& a,
                                const CampaignSummary& b,
                                const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.replays_within_eps, b.replays_within_eps);
  EXPECT_EQ(a.successes_within_eps, b.successes_within_eps);
  EXPECT_EQ(a.max_failed, b.max_failed);
  EXPECT_EQ(a.order_relaxations, b.order_relaxations);
  EXPECT_EQ(a.order_deadlocks, b.order_deadlocks);
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.min(), b.latency.min());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency.stddev(), b.latency.stddev());
  EXPECT_EQ(a.delivered_messages.mean(), b.delivered_messages.mean());
  ASSERT_EQ(a.latency_quantiles.size(), b.latency_quantiles.size());
  for (std::size_t i = 0; i < a.latency_quantiles.size(); ++i) {
    const double av = a.latency_quantiles[i].value;
    const double bv = b.latency_quantiles[i].value;
    // NaN marks "no successful replay yet"; NaN != NaN under IEEE.
    if (std::isnan(av) || std::isnan(bv))
      EXPECT_EQ(std::isnan(av), std::isnan(bv));
    else
      EXPECT_EQ(av, bv);
  }
}

void expect_records_identical(const std::vector<ReplayRecord>& a,
                              const std::vector<ReplayRecord>& b,
                              const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].success, b[i].success) << "replay " << i;
    ASSERT_EQ(a[i].order_deadlock, b[i].order_deadlock) << "replay " << i;
    ASSERT_EQ(a[i].latency, b[i].latency) << "replay " << i;
    ASSERT_EQ(a[i].delivered_messages, b[i].delivered_messages)
        << "replay " << i;
    ASSERT_EQ(a[i].order_relaxations, b[i].order_relaxations)
        << "replay " << i;
    ASSERT_EQ(a[i].failed_count, b[i].failed_count) << "replay " << i;
  }
}

TEST(CampaignRecordMemo, MatchesReferenceAcrossSamplersAndThreads) {
  // The executor vs the simulate_crashes reference, across four scenario
  // distributions and 1/2/4/8 worker threads, with several waves so the
  // record memo answers repeats from earlier waves: folded summaries
  // byte-identical throughout.
  const Scenario s = random_setup(41, 8, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const double horizon = schedule.horizon();

  std::vector<std::unique_ptr<ScenarioSampler>> samplers;
  samplers.push_back(std::make_unique<UniformKSampler>(8, 2));
  samplers.push_back(std::make_unique<CrashWindowSampler>(8, 2, 0.0, horizon));
  samplers.push_back(std::make_unique<ExponentialLifetimeSampler>(
      8, 2.0 / horizon, horizon));
  samplers.push_back(std::make_unique<CorrelatedGroupSampler>(
      8, 3, 0.4, 0.0, horizon * 0.5));
  for (const auto& sampler : samplers) {
    CampaignOptions options;
    options.replays = 400;
    options.block = 64;
    const CampaignSummary reference =
        test::reference_summary(schedule, *s.costs, *sampler, options);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      options.threads = threads;
      expect_summaries_identical(
          reference, run_campaign(schedule, *s.costs, *sampler, options),
          sampler->name() + " threads " + std::to_string(threads));
    }
  }
}

TEST(CampaignQuantization, BucketedCampaignEqualsReferenceOverSnappedDraws) {
  // The quantization contract, verified literally: a bucketed campaign
  // replays exactly the snapped scenarios, so its record stream equals the
  // reference over draws snapped by hand — record for record, across
  // several waves (the record memo answers repeats).
  const Scenario s = random_setup(47, 8, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const double horizon = schedule.horizon();
  const double width = horizon / 16.0;

  std::vector<std::unique_ptr<ScenarioSampler>> samplers;
  samplers.push_back(std::make_unique<CrashWindowSampler>(8, 2, 0.0, horizon));
  samplers.push_back(std::make_unique<ExponentialLifetimeSampler>(
      8, 2.0 / horizon, horizon));
  samplers.push_back(std::make_unique<CorrelatedGroupSampler>(
      8, 3, 0.4, 0.0, horizon * 0.5));
  for (const auto& sampler : samplers) {
    CampaignOptions bucketed;
    bucketed.block = 64;
    bucketed.threads = 3;
    bucketed.theta_bucket_width = width;
    expect_records_identical(
        test::reference_records(schedule, *s.costs, *sampler, bucketed.seed,
                                0, 400, width),
        run_campaign_block(schedule, *s.costs, *sampler, bucketed, 0, 400),
        sampler->name());
  }
}

TEST(CampaignQuantization, BucketedBlockMidStreamEqualsReference) {
  // A block that starts mid-stream (a subprocess worker's slice) snaps the
  // same scenarios the reference draws at those indices.
  const Scenario s = random_setup(48, 8, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const CrashWindowSampler sampler(8, 2, 0.0, schedule.horizon());
  CampaignOptions bucketed;
  bucketed.block = 64;
  bucketed.threads = 2;
  bucketed.theta_bucket_width = schedule.horizon() / 24.0;
  expect_records_identical(
      test::reference_records(schedule, *s.costs, sampler, bucketed.seed, 137,
                              500, bucketed.theta_bucket_width),
      run_campaign_block(schedule, *s.costs, sampler, bucketed, 137, 500),
      "records");
}

TEST(CampaignQuantization, DriftShrinksWithBucketWidth) {
  // Replay results are step functions of θ, so a snapped replay differs
  // from the exact one only when an op boundary separates θ from its
  // bucket midpoint — a fraction of draws that shrinks with the width. At
  // ε-covered crash counts (k = 1 <= eps) success itself never drifts.
  const Scenario s = random_setup(53, 8, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const double horizon = schedule.horizon();
  const CrashWindowSampler sampler(8, 1, 0.0, horizon);
  const std::size_t draws = 300;
  CampaignOptions exact;
  exact.seed = 5300;
  exact.threads = 2;
  const std::vector<ReplayRecord> truth =
      run_campaign_block(schedule, *s.costs, sampler, exact, 0, draws);

  std::vector<std::size_t> differing;
  for (const double width : {horizon / 16.0, horizon / 4096.0}) {
    // Each snapped crash time stays within width/2 of its draw.
    Rng master(exact.seed);
    for (std::size_t i = 0; i < draws; ++i) {
      Rng stream = master.split();
      const CrashScenario scenario = sampler.sample(stream);
      for (std::size_t p = 0; p < 8; ++p) {
        const double t = scenario.crash_time(ProcId(p));
        if (std::isfinite(t)) {
          ASSERT_LE(std::abs(snapped(t, width) - t), width / 2.0);
        }
      }
    }
    CampaignOptions bucketed = exact;
    bucketed.theta_bucket_width = width;
    const std::vector<ReplayRecord> approx =
        run_campaign_block(schedule, *s.costs, sampler, bucketed, 0, draws);
    std::size_t differs = 0;
    for (std::size_t i = 0; i < draws; ++i) {
      ASSERT_TRUE(truth[i].success);
      EXPECT_TRUE(approx[i].success);  // k=1 <= eps: survival cannot drift
      if (approx[i].latency != truth[i].latency) ++differs;
    }
    differing.push_back(differs);
  }
  // 256× finer buckets: the differing fraction must collapse (and stay
  // small in absolute terms).
  EXPECT_LE(differing[1], differing[0]);
  EXPECT_LE(differing[1], draws / 20);
}

TEST(CampaignQuantization, BucketedSummariesIdenticalAcrossThreadCounts) {
  const Scenario s = random_setup(61, 8, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const CrashWindowSampler sampler(8, 2, 0.0, schedule.horizon());
  std::unique_ptr<CampaignSummary> reference;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    CampaignOptions options;
    options.replays = 500;
    options.block = 64;
    options.threads = threads;
    options.theta_bucket_width = schedule.horizon() / 24.0;
    const CampaignSummary summary =
        run_campaign(schedule, *s.costs, sampler, options);
    if (reference == nullptr)
      reference = std::make_unique<CampaignSummary>(summary);
    else
      expect_summaries_identical(*reference, summary,
                                 "threads " + std::to_string(threads));
  }
}

TEST(CampaignRecordMemo, CountersAreExactAtEveryThreadCount) {
  // The record memo is read while grouping and written after the join, on
  // the campaign thread: its counters are a pure function of the scenario
  // stream and the block size, never of the worker count.
  const Scenario s = random_setup(62, 8, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const UniformKSampler uniform(8, 2);
  const CrashWindowSampler window(8, 1, 0.0, schedule.horizon());
  for (const ScenarioSampler* sampler :
       std::vector<const ScenarioSampler*>{&uniform, &window}) {
    CampaignTelemetry reference;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      CampaignOptions options;
      options.replays = 2000;
      options.block = 128;
      options.threads = threads;
      options.theta_bucket_width = sampler == &window
                                       ? schedule.horizon() / 32.0
                                       : 0.0;
      CampaignTelemetry telemetry;
      (void)run_campaign(schedule, *s.costs, *sampler, options, &telemetry);
      if (threads == 1) {
        reference = telemetry;
        EXPECT_GT(reference.memo_hits, 0u) << sampler->name();
        if (sampler == &uniform) {
          // The paper's model: C(8, 2) = 28 dead sets, each replayed once
          // per campaign and never evicted.
          EXPECT_EQ(telemetry.memo_lookups - telemetry.memo_hits, 28u);
          EXPECT_EQ(telemetry.memo_entries, 28u);
        }
        continue;
      }
      EXPECT_EQ(telemetry.memo_lookups, reference.memo_lookups)
          << sampler->name() << " threads " << threads;
      EXPECT_EQ(telemetry.memo_hits, reference.memo_hits)
          << sampler->name() << " threads " << threads;
      EXPECT_EQ(telemetry.memo_entries, reference.memo_entries)
          << sampler->name() << " threads " << threads;
    }
  }
}

TEST(CampaignRecordMemo, CountersMatchPinnedCanonicalGroupOrder) {
  // Which groups miss, and which records survive a clear-on-threshold
  // eviction, depend on the order in which a wave's groups consult and fill
  // the memo: the canonical order (earliest crash, then the crash-time
  // vector). The counters below were recorded from the sort-based grouping
  // executor; any grouping that keeps that order reproduces them exactly,
  // at every thread count.
  struct Pinned {
    std::uint64_t lookups, hits, evictions;
  };
  const auto expect_pinned = [](const CampaignTelemetry& telemetry,
                                const Pinned& pinned, const char* sampler,
                                std::size_t threads) {
    SCOPED_TRACE(std::string(sampler) + " threads " +
                 std::to_string(threads));
    EXPECT_EQ(telemetry.memo_lookups, pinned.lookups);
    EXPECT_EQ(telemetry.memo_hits, pinned.hits);
    EXPECT_EQ(telemetry.memo_evictions, pinned.evictions);
  };
  const Scenario paper = random_setup(64, 10, 1.0);
  const Schedule paper_schedule = caft_for(paper, 2);
  const UniformKSampler uniform(10, 2);
  // 16 processors x 4096 buckets: 65,536 snapped keys, enough distinct
  // draws to pass the 1 << 15 record cap and evict.
  const Scenario chain_setup = test::uniform_setup(chain(3, 2.0), 16, 2.0, 1.0);
  const Schedule chain_schedule = caft_for(chain_setup, 1);
  const CrashWindowSampler window(16, 1, 0.0, chain_schedule.horizon());
  for (const std::size_t threads : {1u, 4u}) {
    CampaignOptions options;
    options.replays = 3000;
    options.block = 64;
    options.seed = 7;
    options.threads = threads;
    CampaignTelemetry telemetry;
    (void)run_campaign(paper_schedule, *paper.costs, uniform, options,
                       &telemetry);
    expect_pinned(telemetry, Pinned{1612, 1567, 0}, "uniform-k", threads);

    CampaignOptions bucketed;
    bucketed.replays = 100000;
    bucketed.seed = 11;
    bucketed.threads = threads;
    bucketed.theta_bucket_width = chain_schedule.horizon() / 4096.0;
    (void)run_campaign(chain_schedule, *chain_setup.costs, window, bucketed,
                       &telemetry);
    expect_pinned(telemetry, Pinned{99188, 25849, 2}, "crash-window",
                  threads);
  }
}

TEST(CampaignRecordMemo, StaysBoundedOverMillionReplays) {
  // 16 processors × 4096 buckets = 65,536 snapped keys, twice the memo's
  // 1 << 15 record cap: over 10^6 replays the memo must keep clearing and
  // keep answering, with memory O(cap), not O(distinct keys).
  const Scenario s = test::uniform_setup(chain(3, 2.0), 16, 2.0, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const CrashWindowSampler sampler(16, 1, 0.0, schedule.horizon());
  CampaignOptions options;
  options.replays = 1000000;
  options.threads = 2;
  options.theta_bucket_width = schedule.horizon() / 4096.0;
  CampaignTelemetry telemetry;
  (void)run_campaign(schedule, *s.costs, sampler, options, &telemetry);
  EXPECT_EQ(telemetry.replays, 1000000u);
  EXPECT_LE(telemetry.memo_entries, std::size_t{1} << 15);
  EXPECT_GT(telemetry.memo_evictions, 0u);
  EXPECT_GT(telemetry.memo_hits, 0u);
}

}  // namespace
}  // namespace caft
