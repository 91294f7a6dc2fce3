// Differential (adversarial) suite for the incremental ReplayEngine: on
// hundreds of randomized (instance, schedule, scenario) triples — across
// algorithms, ε values, communication models, topologies and scenario
// distributions — every field of the engine's CrashResult must be
// *byte-identical* to the naive simulate_crashes path: per-task/per-replica
// finish times (exact doubles, no tolerance), success flags, delivered
// message counts, order-relaxation accounting. Every campaign replays
// through the engine, so campaign results rest entirely on this property;
// the campaign-level cases check whole record streams against the
// simulate_crashes reference of tests/helpers.hpp.
#include "sim/replay_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "algo/caft.hpp"
#include "algo/ftbar.hpp"
#include "algo/ftsa.hpp"
#include "algo/heft.hpp"
#include "campaign/campaign.hpp"
#include "campaign/scenario_sampler.hpp"
#include "comm/one_port.hpp"
#include "dag/generators.hpp"
#include "helpers.hpp"
#include "platform/cost_synthesis.hpp"
#include "sim/crash_sim.hpp"

namespace caft {
namespace {

using test::Scenario;

/// Exact, field-by-field comparison. Doubles compare with ==: the engines
/// must perform identical IEEE arithmetic, not merely agree approximately.
void expect_identical(const CrashResult& naive, const CrashResult& incr,
                      const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(naive.success, incr.success);
  EXPECT_EQ(naive.latency, incr.latency);
  EXPECT_EQ(naive.delivered_messages, incr.delivered_messages);
  EXPECT_EQ(naive.order_relaxations, incr.order_relaxations);
  EXPECT_EQ(naive.order_deadlock, incr.order_deadlock);
  ASSERT_EQ(naive.completed.size(), incr.completed.size());
  ASSERT_EQ(naive.finish.size(), incr.finish.size());
  for (std::size_t t = 0; t < naive.completed.size(); ++t) {
    ASSERT_EQ(naive.completed[t].size(), incr.completed[t].size());
    ASSERT_EQ(naive.finish[t].size(), incr.finish[t].size());
    for (std::size_t r = 0; r < naive.completed[t].size(); ++r) {
      EXPECT_EQ(naive.completed[t][r], incr.completed[t][r])
          << "task " << t << " replica " << r;
      EXPECT_EQ(naive.finish[t][r], incr.finish[t][r])
          << "task " << t << " replica " << r;
    }
  }
}

/// Replays `scenario` through both paths and asserts identity. Returns the
/// number of triples exercised (always 1; keeps call sites countable).
std::size_t check_triple(const Schedule& schedule, const CostModel& costs,
                         const ReplayEngine& engine,
                         ReplayEngine::Scratch& scratch,
                         const CrashScenario& scenario,
                         const std::string& context) {
  const CrashResult naive = simulate_crashes(schedule, costs, scenario);
  const CrashResult incr = engine.replay(scenario, scratch);
  expect_identical(naive, incr, context);
  return 1;
}

Schedule schedule_with(const std::string& algo, const Scenario& s,
                       std::size_t eps, CommModelKind model) {
  const SchedulerOptions base{eps, model};
  if (algo == "caft") {
    CaftOptions options;
    options.base = base;
    return caft_schedule(s.graph, *s.platform, *s.costs, options);
  }
  if (algo == "ftsa") return ftsa_schedule(s.graph, *s.platform, *s.costs, base);
  if (algo == "ftbar") {
    FtbarOptions options;
    options.base = base;
    return ftbar_schedule(s.graph, *s.platform, *s.costs, options);
  }
  return heft_schedule(s.graph, *s.platform, *s.costs, model);  // eps = 0
}

// ------------------------------------------------------- the big sweep

TEST(ReplayEquivalence, RandomTriplesAcrossAlgorithmsAndSamplers) {
  // 6 instances x 4 schedules x 11 scenarios = 264 triples, all checked
  // byte-for-byte. One Scratch is reused throughout, so scratch reuse is
  // exercised across schedules too.
  std::size_t triples = 0;
  ReplayEngine::Scratch scratch;
  const std::vector<std::uint64_t> seeds = {11, 23, 37, 51, 73, 97};
  for (const std::uint64_t seed : seeds) {
    RandomDagParams dag;
    dag.min_tasks = 15;
    dag.max_tasks = 35;
    const Scenario s = test::random_setup(seed, 8, seed % 2 == 0 ? 1.0 : 5.0,
                                          dag);
    struct Config {
      const char* algo;
      std::size_t eps;
      CommModelKind model;
    };
    const std::vector<Config> configs = {
        {"caft", 1, CommModelKind::kOnePort},
        {"ftsa", 2, CommModelKind::kOnePort},
        {"ftbar", 1, CommModelKind::kOnePort},
        {"heft", 0, CommModelKind::kMacroDataflow},
    };
    for (const Config& config : configs) {
      const Schedule schedule =
          schedule_with(config.algo, s, config.eps, config.model);
      const ReplayEngine engine(schedule, *s.costs);
      const double horizon = schedule.horizon();

      std::vector<std::unique_ptr<ScenarioSampler>> samplers;
      samplers.push_back(std::make_unique<UniformKSampler>(8, config.eps));
      samplers.push_back(
          std::make_unique<UniformKSampler>(8, config.eps + 2));
      samplers.push_back(std::make_unique<CrashWindowSampler>(
          8, 2, 0.0, horizon * 1.1));
      samplers.push_back(std::make_unique<ExponentialLifetimeSampler>(
          8, 2.0 / horizon, horizon));
      samplers.push_back(std::make_unique<CorrelatedGroupSampler>(
          8, 3, 0.4, 0.0, horizon * 0.5));
      Rng rng(seed * 1000 + config.eps);
      for (const auto& sampler : samplers) {
        for (int draw = 0; draw < 2; ++draw) {
          const CrashScenario scenario = sampler->sample(rng);
          triples += check_triple(
              schedule, *s.costs, engine, scratch, scenario,
              std::string(config.algo) + " seed " + std::to_string(seed) +
                  " sampler " + sampler->name() + " draw " +
                  std::to_string(draw));
        }
      }
      // The fault-free scenario replays from the final snapshot alone.
      triples += check_triple(schedule, *s.costs, engine, scratch,
                              CrashScenario::none(8),
                              std::string(config.algo) + " fault-free");
    }
  }
  EXPECT_GE(triples, 200u);
}

// ------------------------------------------- targeted boundary scenarios

TEST(ReplayEquivalence, ZeroCrashMatchesCommittedTimetable) {
  const Scenario s = test::random_setup(5, 6, 1.0);
  const Schedule schedule = schedule_with("caft", s, 1, CommModelKind::kOnePort);
  const ReplayEngine engine(schedule, *s.costs);
  const CrashResult result = engine.replay(CrashScenario::none(6));
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.latency, schedule.zero_crash_latency());
  for (const TaskId t : s.graph.all_tasks())
    for (ReplicaIndex r = 0; r < 2; ++r)
      EXPECT_NEAR(result.finish[t.index()][r], schedule.replica(t, r).finish,
                  1e-9);
}

TEST(ReplayEquivalence, AllProcessorsDead) {
  const Scenario s = test::random_setup(9, 5, 1.0);
  const Schedule schedule = schedule_with("ftsa", s, 1, CommModelKind::kOnePort);
  const ReplayEngine engine(schedule, *s.costs);
  ReplayEngine::Scratch scratch;
  std::vector<ProcId> all;
  for (std::size_t p = 0; p < 5; ++p)
    all.push_back(ProcId(static_cast<ProcId::value_type>(p)));
  check_triple(schedule, *s.costs, engine, scratch,
               CrashScenario::at_zero(5, all), "all dead");
}

TEST(ReplayEquivalence, ThetaExactlyAtReplicaFinishBoundary) {
  // Crash times equal to committed finish instants probe the strict ">"
  // in the crash-at-θ rule and the "<=" in snapshot validity: work
  // completing exactly at θ survives in both engines.
  const Scenario s = test::random_setup(13, 6, 1.0);
  const Schedule schedule = schedule_with("caft", s, 1, CommModelKind::kOnePort);
  const ReplayEngine engine(schedule, *s.costs);
  ReplayEngine::Scratch scratch;
  std::size_t checked = 0;
  for (const TaskId t : s.graph.all_tasks()) {
    if (t.index() % 3 != 0) continue;  // keep the test quick
    for (ReplicaIndex r = 0; r < 2; ++r) {
      const ReplicaAssignment& a = schedule.replica(t, r);
      CrashScenario scenario = CrashScenario::none(6);
      scenario.set_crash_time(a.proc, a.finish);
      checked += check_triple(schedule, *s.costs, engine, scratch, scenario,
                              "theta at finish of task " +
                                  std::to_string(t.index()) + " replica " +
                                  std::to_string(r));
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(ReplayEquivalence, ThetaSweepAcrossSnapshotBoundaries) {
  // A fine θ sweep for one crashing processor crosses every stored
  // snapshot's validity boundary at least once.
  const Scenario s = test::random_setup(29, 6, 5.0);
  const Schedule schedule = schedule_with("ftsa", s, 1, CommModelKind::kOnePort);
  const ReplayEngine engine(schedule, *s.costs);
  ASSERT_GT(engine.snapshot_count(), 1u);
  ReplayEngine::Scratch scratch;
  const double horizon = schedule.horizon();
  for (int step = 0; step <= 40; ++step) {
    const double theta = horizon * static_cast<double>(step) / 40.0;
    CrashScenario scenario = CrashScenario::none(6);
    scenario.set_crash_time(ProcId(2), theta);
    check_triple(schedule, *s.costs, engine, scratch, scenario,
                 "theta sweep step " + std::to_string(step));
  }
}

TEST(ReplayEquivalence, SparseTopologyWithRouters) {
  // Star topology: multi-hop routes exercise segment ops and router kill
  // lists (transit through a dead hub must vanish identically).
  Rng rng(21);
  RandomDagParams dp;
  dp.min_tasks = 20;
  dp.max_tasks = 30;
  const TaskGraph g = random_dag(dp, rng);
  auto platform = std::make_unique<Platform>(Topology::star(6));
  CostSynthesisParams cp;
  cp.granularity = 1.0;
  auto costs =
      std::make_unique<CostModel>(synthesize_costs(g, *platform, cp, rng));
  CaftOptions options;
  options.base = SchedulerOptions{1, CommModelKind::kOnePort};
  const Schedule schedule = caft_schedule(g, *platform, *costs, options);
  const ReplayEngine engine(schedule, *costs);
  ReplayEngine::Scratch scratch;
  // Kill each processor alone (including the hub, proc 0), then pairs.
  for (std::size_t p = 0; p < 6; ++p)
    check_triple(schedule, *costs, engine, scratch,
                 CrashScenario::at_zero(
                     6, {ProcId(static_cast<ProcId::value_type>(p))}),
                 "star single crash p" + std::to_string(p));
  for (std::size_t p = 1; p < 6; ++p)
    check_triple(
        schedule, *costs, engine, scratch,
        CrashScenario::at_zero(
            6, {ProcId(0), ProcId(static_cast<ProcId::value_type>(p))}),
        "star hub plus p" + std::to_string(p));
}

TEST(ReplayEquivalence, CrashWindowsAtScaleMatchNaive) {
  // 200-400-task DAGs on 32 processors: 1,088 resources on the clique, so
  // the candidate tree is eleven levels deep and a θ death strikes a
  // platform far wider than the small sweeps above. Crash windows with
  // k = 1 … ε + 2 and θ across [0, H] reach the targeted death
  // invalidation (the θ-dead processor's resources, the ops it kills) and
  // the ready hand-off heap (macro-dataflow turns every comm into one).
  struct Config {
    std::uint64_t seed;
    CommModelKind model;
    bool star;  ///< multi-hop routes through the hub (a router)
  };
  const std::vector<Config> configs = {
      {201, CommModelKind::kOnePort, false},
      {202, CommModelKind::kMacroDataflow, false},
      {203, CommModelKind::kOnePort, true},
  };
  const std::size_t procs = 32;
  const std::size_t eps = 2;
  std::size_t failed = 0;
  ReplayEngine::Scratch scratch;
  for (const Config& config : configs) {
    Rng rng(config.seed);
    RandomDagParams dag;
    dag.min_tasks = 200;
    dag.max_tasks = 400;
    const TaskGraph g = random_dag(dag, rng);
    const Platform platform = config.star ? Platform(Topology::star(procs))
                                          : Platform(procs);
    const CostModel costs =
        synthesize_costs(g, platform, CostSynthesisParams{}, rng);
    CaftOptions options;
    options.base = SchedulerOptions{eps, config.model};
    const Schedule schedule = caft_schedule(g, platform, costs, options);
    const ReplayEngine engine(schedule, costs);
    const double horizon = schedule.horizon();
    for (std::size_t draw = 0; draw < 16; ++draw) {
      const std::size_t k = 1 + draw % (eps + 2);
      const CrashScenario scenario =
          CrashWindowSampler(procs, k, 0.0, horizon).sample(rng);
      check_triple(schedule, costs, engine, scratch, scenario,
                   "seed " + std::to_string(config.seed) + " draw " +
                       std::to_string(draw));
      if (!engine.replay(scenario, scratch).success) ++failed;
    }
  }
  // The sample must reach the death paths: some replay loses every
  // replica of a task.
  EXPECT_GT(failed, 0u);
}

TEST(ReplayEquivalence, OrderRelaxationAfterCrashMatchesNaive) {
  // No randomized instance above relaxes the committed order, so this one
  // is hand-posted. Chain S -> T -> X -> Y, two replicas each, on a
  // 4-processor clique:
  //   S1@P1 [0,10]  S2@P2 [50,60]  T1@P0 (inputs from S1 and S2)
  //   X1@P3, X2@P2 (inputs from T1 only)  Y1@P0 (from X1)  Y2@P2 (from X2)
  // The receive port of P0 commits S1->T1, then X1->Y1, then S2->T1. When
  // P1 dies before S1's message leaves, T1 can only use S2->T1, which
  // waits behind X1->Y1, which waits (through X1) on T1: the strict order
  // is a circular wait, and the replay must jump S2->T1 ahead.
  const TaskGraph g = chain(4, 5.0);
  Platform platform(4);
  const CostModel costs = uniform_costs(g, platform, 10.0, 1.0);
  Schedule schedule(g, platform, 1, CommModelKind::kOnePort);
  OnePortEngine one_port(platform, costs);
  const std::vector<TaskId> tasks = g.all_tasks();
  const auto exec = [&](std::size_t task, ReplicaIndex r, std::size_t proc,
                        double ready) {
    const TaskTimes times =
        one_port.post_exec(ProcId(proc), ready, 10.0);
    schedule.set_replica(tasks[task], r,
                         {ProcId(proc), times.start, times.finish});
    return times.finish;
  };
  const auto comm = [&](std::size_t task, ReplicaIndex from,
                        std::size_t from_proc, ReplicaIndex to,
                        std::size_t to_proc, double ready) {
    CommAssignment c;
    c.edge = static_cast<EdgeIndex>(task);
    c.from = {tasks[task], from};
    c.to = {tasks[task + 1], to};
    c.src_proc = ProcId(from_proc);
    c.dst_proc = ProcId(to_proc);
    c.volume = 5.0;
    c.times = one_port.post_comm(c.src_proc, c.dst_proc, c.volume, ready);
    schedule.add_comm(c);
    return c.times.arrival;
  };
  // Posted in time order (the one-port engine appends per resource).
  const double s1 = exec(0, 0, 1, 0.0);
  const double s1_t1 = comm(0, 0, 1, 0, 0, s1);
  const double s1_t2 = comm(0, 0, 1, 1, 3, s1);
  const double t1 = exec(1, 0, 0, s1_t1);
  const double t1_x1 = comm(1, 0, 0, 0, 3, t1);
  const double x1 = exec(2, 0, 3, t1_x1);
  const double x1_y1 = comm(2, 0, 3, 0, 0, x1);
  const double s2 = exec(0, 1, 2, 50.0);
  (void)comm(0, 1, 2, 0, 0, s2);
  (void)comm(0, 1, 2, 1, 3, s2);
  (void)exec(1, 1, 3, s1_t2);
  const double t1_x2 = comm(1, 0, 0, 1, 2, t1);
  const double x2 = exec(2, 1, 2, t1_x2);
  const double x2_y2 = comm(2, 1, 2, 1, 2, x2);  // intra: a hand-off
  (void)exec(3, 0, 0, x1_y1);
  (void)exec(3, 1, 2, x2_y2);
  ASSERT_TRUE(schedule.complete());

  const ReplayEngine engine(schedule, costs);
  ReplayEngine::Scratch scratch;
  // Dead from the start, killed mid-execution at θ = 5, and killed while
  // sending S1's message at θ = 12: the last two reach the relaxation
  // through a θ death.
  for (const double theta : {0.0, 5.0, 12.0}) {
    CrashScenario scenario = CrashScenario::none(4);
    scenario.set_crash_time(ProcId(1), theta);
    const CrashResult naive = simulate_crashes(schedule, costs, scenario);
    EXPECT_GT(naive.order_relaxations, 0u) << "theta " << theta;
    EXPECT_TRUE(naive.success) << "theta " << theta;
    check_triple(schedule, costs, engine, scratch, scenario,
                 "relaxation theta " + std::to_string(theta));
  }
}

TEST(ReplayEquivalence, RepeatsAcrossEnginesStayIdentical) {
  // Repeated replays must return the same result content every time, and
  // a Scratch alternating between engines must not leak state.
  const Scenario s1 = test::random_setup(31, 6, 1.0);
  const Scenario s2 = test::random_setup(32, 6, 1.0);
  const Schedule sched1 = schedule_with("caft", s1, 1, CommModelKind::kOnePort);
  const Schedule sched2 = schedule_with("caft", s2, 1, CommModelKind::kOnePort);
  const ReplayEngine engine1(sched1, *s1.costs);
  const ReplayEngine engine2(sched2, *s2.costs);
  ReplayEngine::Scratch scratch;
  const CrashScenario crash = CrashScenario::at_zero(6, {ProcId(3)});
  for (int round = 0; round < 3; ++round) {
    check_triple(sched1, *s1.costs, engine1, scratch, crash,
                 "round " + std::to_string(round) + " engine1");
    check_triple(sched2, *s2.costs, engine2, scratch, crash,
                 "round " + std::to_string(round) + " engine2");
  }
}

// ------------------------------------------------ campaign-level identity

TEST(ReplayEquivalence, CampaignSummariesMatchReference) {
  const Scenario s = test::random_setup(17, 8, 1.0);
  const Schedule schedule = schedule_with("caft", s, 1, CommModelKind::kOnePort);
  const UniformKSampler uniform(8, 1);
  const CrashWindowSampler window(8, 2, 0.0, schedule.horizon());
  for (const ScenarioSampler* sampler :
       std::vector<const ScenarioSampler*>{&uniform, &window}) {
    CampaignOptions options;
    options.replays = 600;
    options.threads = 3;  // identity must survive resharding
    options.block = 128;
    const CampaignSummary a =
        test::reference_summary(schedule, *s.costs, *sampler, options);
    const CampaignSummary b =
        run_campaign(schedule, *s.costs, *sampler, options);
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
    for (std::size_t i = 0; i < a.latency_quantiles.size(); ++i)
      EXPECT_EQ(a.latency_quantiles[i].value, b.latency_quantiles[i].value);
  }
}

TEST(ReplayEquivalence, CrashWindowCampaignAtScaleMatchesReference) {
  // A whole campaign at scale: a 300-task random DAG on 32 processors
  // (1,088 resources), CAFT with ε = 2, and 200 crash-window replays with
  // three θ crashes spread over the whole schedule, so the executor's
  // engine reaches targeted death invalidation and the ready hand-off
  // heap. Record for record against the simulate_crashes reference.
  RandomDagParams dag;
  dag.min_tasks = 300;
  dag.max_tasks = 300;
  const Scenario s = test::random_setup(42, 32, 1.0, dag);
  const Schedule schedule = schedule_with("caft", s, 2, CommModelKind::kOnePort);
  const CrashWindowSampler sampler(32, 3, 0.0, schedule.horizon());
  CampaignOptions options;
  options.threads = 2;
  options.block = 64;
  const std::vector<ReplayRecord> reference = test::reference_records(
      schedule, *s.costs, sampler, options.seed, 0, 200);
  const std::vector<ReplayRecord> records =
      run_campaign_block(schedule, *s.costs, sampler, options, 0, 200);
  ASSERT_EQ(reference.size(), records.size());
  std::size_t failed = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE("replay " + std::to_string(i));
    ASSERT_EQ(reference[i].success, records[i].success);
    ASSERT_EQ(reference[i].order_deadlock, records[i].order_deadlock);
    ASSERT_EQ(reference[i].latency, records[i].latency);
    ASSERT_EQ(reference[i].delivered_messages, records[i].delivered_messages);
    ASSERT_EQ(reference[i].order_relaxations, records[i].order_relaxations);
    ASSERT_EQ(reference[i].failed_count, records[i].failed_count);
    if (!records[i].success) ++failed;
  }
  // Three crashes against ε = 2: some replay must lose every replica of a
  // task, so the death paths are reached.
  EXPECT_GT(failed, 0u);
}

TEST(ReplayEquivalence, EngineRejectsMismatchedScenario) {
  const Scenario s = test::random_setup(3, 5, 1.0);
  const Schedule schedule = schedule_with("heft", s, 0, CommModelKind::kOnePort);
  const ReplayEngine engine(schedule, *s.costs);
  EXPECT_THROW((void)engine.replay(CrashScenario::none(4)), CheckError);
}

TEST(ReplayEquivalence, FirstCrashHelper) {
  CrashScenario scenario = CrashScenario::none(4);
  EXPECT_TRUE(std::isinf(ReplayEngine::first_crash(scenario)));
  scenario.set_crash_time(ProcId(2), 7.5);
  EXPECT_EQ(ReplayEngine::first_crash(scenario), 7.5);
  scenario.set_crash_time(ProcId(0), 3.25);
  EXPECT_EQ(ReplayEngine::first_crash(scenario), 3.25);
}

}  // namespace
}  // namespace caft
