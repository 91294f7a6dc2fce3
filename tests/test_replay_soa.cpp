// Micro-property suite pinning the SoA replay kernel introduced by the
// structure-of-arrays refactor:
//
//  - dead-mask closure (the single linear topological pass over
//    direct_kill_mask_ words) must compute exactly the fixpoint the old
//    worklist propagation computed, witnessed against the naive
//    simulate_crashes reference on randomized 64-processor schedules —
//    the widest platform the bitmask path handles;
//  - the > 64-processor worklist fallback must stay byte-identical too;
//  - the commit loop's work per event must follow the events that change,
//    not the size of the platform (counted through Scratch::counters()).
#include "sim/replay_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "algo/caft.hpp"
#include "campaign/scenario_sampler.hpp"
#include "comm/one_port.hpp"
#include "common/rng.hpp"
#include "dag/generators.hpp"
#include "helpers.hpp"
#include "sim/crash_sim.hpp"

namespace caft {
namespace {

using test::Scenario;

Schedule caft_for(const Scenario& s, std::size_t eps) {
  CaftOptions options;
  options.base = SchedulerOptions{eps, CommModelKind::kOnePort};
  return caft_schedule(s.graph, *s.platform, *s.costs, options);
}

/// Exact, field-by-field comparison; doubles compare with ==.
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

CrashScenario mask_scenario(std::size_t procs, std::uint64_t mask) {
  std::vector<ProcId> failed;
  for (std::size_t p = 0; p < procs; ++p)
    if ((mask >> p) & 1u) failed.push_back(ProcId(p));
  return CrashScenario::at_zero(procs, failed);
}

// ----------------------------------------------- dead-mask closure property

TEST(ReplaySoa, DeadMaskClosureMatchesNaiveOnRandom64ProcSchedules) {
  // 64 processors is the full width of the bitmask word the linear
  // topological closure operates on. Randomized dead-from-start masks of
  // every size class — singletons, small random subsets, half the machine,
  // all-but-one, all — must replay byte-identically to simulate_crashes,
  // whose kill set is still computed by per-event worklist propagation.
  ReplayEngine::Scratch scratch;
  for (const std::uint64_t seed : {101ull, 113ull}) {
    RandomDagParams dag;
    dag.min_tasks = 20;
    dag.max_tasks = 40;
    const Scenario s = test::random_setup(seed, 64, 2.0, dag);
    const Schedule schedule = caft_for(s, 1);
    const ReplayEngine engine(schedule, *s.costs);
    Rng rng(seed * 31 + 7);

    std::vector<std::uint64_t> masks;
    masks.push_back(0);                      // no dead procs: closure skipped
    masks.push_back(~std::uint64_t{0});      // whole machine dead
    masks.push_back(~std::uint64_t{0} >> 1); // all but the top proc
    for (std::size_t p = 0; p < 64; p += 7)  // singleton sweep
      masks.push_back(std::uint64_t{1} << p);
    for (int draw = 0; draw < 24; ++draw) {  // random subsets, mixed k
      const std::size_t k =
          static_cast<std::size_t>(rng.uniform_int(1, draw % 3 == 0 ? 32 : 6));
      std::uint64_t mask = 0;
      for (const std::size_t p : rng.sample_without_replacement(64, k))
        mask |= std::uint64_t{1} << p;
      masks.push_back(mask);
    }

    for (const std::uint64_t mask : masks) {
      const CrashScenario scenario = mask_scenario(64, mask);
      const CrashResult naive = simulate_crashes(schedule, *s.costs, scenario);
      const CrashResult incr = engine.replay(scenario, scratch);
      expect_identical(naive, incr,
                       "seed " + std::to_string(seed) + " mask " +
                           std::to_string(mask));
    }
  }
}

TEST(ReplaySoa, MidRunCrashesMatchNaiveOn64Procs) {
  // θ-crashes (strictly positive crash instants) take the event-driven
  // path — candidate tree, propagate(), targeted death invalidation —
  // rather than the up-front closure. Pin that side on the same wide platform.
  RandomDagParams dag;
  dag.min_tasks = 20;
  dag.max_tasks = 35;
  const Scenario s = test::random_setup(127, 64, 1.0, dag);
  const Schedule schedule = caft_for(s, 1);
  const ReplayEngine engine(schedule, *s.costs);
  const double horizon = schedule.horizon();
  ReplayEngine::Scratch scratch;
  Rng rng(1279);
  const double inf = std::numeric_limits<double>::infinity();

  for (int draw = 0; draw < 24; ++draw) {
    std::vector<double> times(64, inf);
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (const std::size_t p : rng.sample_without_replacement(64, k))
      times[p] = rng.uniform(0.0, horizon * 1.1);
    const CrashScenario scenario(std::move(times));
    const CrashResult naive = simulate_crashes(schedule, *s.costs, scenario);
    const CrashResult incr = engine.replay(scenario, scratch);
    expect_identical(naive, incr, "theta draw " + std::to_string(draw));
  }
}

TEST(ReplaySoa, WorklistFallbackMatchesNaiveAbove64Procs) {
  // Platforms wider than the 64-bit mask word keep the old worklist
  // propagation (and skip the memo). The schedulers cap platforms at 64
  // processors (support masks), so the schedule is hand-posted through the
  // one-port engine: a 10-task chain, two replicas per task, every
  // replica-to-replica communication committed, spread over 72 processors.
  const std::size_t procs = 72;
  const TaskGraph g = chain(10, 5.0);
  Platform platform(procs);
  const CostModel costs = uniform_costs(g, platform, 10.0, 1.0);
  Schedule sched(g, platform, 1, CommModelKind::kOnePort);
  OnePortEngine one_port(platform, costs);

  const auto proc_of = [&](std::size_t t, ReplicaIndex r) {
    return ProcId((t * 7 + r * 3) % procs);
  };
  const std::vector<TaskId> tasks = g.all_tasks();
  std::vector<std::array<TaskTimes, 2>> times(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (ReplicaIndex r = 0; r < 2; ++r) {
      double ready = 0.0;
      if (t > 0) {
        for (ReplicaIndex q = 0; q < 2; ++q) {
          CommAssignment ca;
          ca.edge = static_cast<EdgeIndex>(t - 1);
          ca.from = {tasks[t - 1], q};
          ca.to = {tasks[t], r};
          ca.src_proc = proc_of(t - 1, q);
          ca.dst_proc = proc_of(t, r);
          ca.volume = 5.0;
          ca.times = one_port.post_comm(ca.src_proc, ca.dst_proc, ca.volume,
                                        times[t - 1][q].finish);
          ready = std::max(ready, ca.times.arrival);
          sched.add_comm(ca);
        }
      }
      times[t][r] = one_port.post_exec(proc_of(t, r), ready, 10.0);
      sched.set_replica(tasks[t], r,
                        {proc_of(t, r), times[t][r].start, times[t][r].finish});
    }
  }
  ASSERT_TRUE(sched.complete());

  const ReplayEngine engine(sched, costs);
  ReplayEngine::Scratch scratch;
  Rng rng(1319);
  const double inf = std::numeric_limits<double>::infinity();

  // Dead-from-start masks of varying size, plus mid-run θ-crashes: both
  // must match the naive reference through the fallback path.
  for (int draw = 0; draw < 12; ++draw) {
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(1, 8));
    std::vector<ProcId> failed;
    for (const std::size_t p : rng.sample_without_replacement(procs, k))
      failed.push_back(ProcId(p));
    const CrashScenario scenario = CrashScenario::at_zero(procs, failed);
    const CrashResult naive = simulate_crashes(sched, costs, scenario);
    const CrashResult incr = engine.replay(scenario, scratch);
    expect_identical(naive, incr, "fallback draw " + std::to_string(draw));
  }
  for (int draw = 0; draw < 8; ++draw) {
    std::vector<double> crash_times(procs, inf);
    for (const std::size_t p : rng.sample_without_replacement(procs, 3))
      crash_times[p] = rng.uniform(0.0, sched.horizon());
    const CrashScenario scenario(std::move(crash_times));
    const CrashResult naive = simulate_crashes(sched, costs, scenario);
    const CrashResult incr = engine.replay(scenario, scratch);
    expect_identical(naive, incr, "fallback theta " + std::to_string(draw));
  }
}

// ------------------------------------------------------- memo torture test

// ------------------------------------------------ work per committed event

TEST(ReplaySoa, WorkPerEventFollowsEventsNotPlatformSize) {
  // A 500-task CAFT schedule on 32 processors has 3 × 32 + 992 = 1,088
  // resources. Under crash-window scenarios each commit must recompute a
  // handful of resource candidates (not all of them after every death),
  // and each hand-off must be checked about once per replay (not once per
  // commit while it waits).
  RandomDagParams dag;
  dag.min_tasks = 500;
  dag.max_tasks = 500;
  const Scenario s = test::random_setup(501, 32, 1.0, dag);
  const Schedule schedule = caft_for(s, 2);
  std::size_t handoff_ops = 0;  // one-port: intra-processor comms only
  for (const CommAssignment& c : schedule.comms())
    if (c.intra()) ++handoff_ops;
  ASSERT_GT(handoff_ops, 0u);

  const ReplayEngine engine(schedule, *s.costs);
  const CrashWindowSampler sampler(32, 2, 0.0, schedule.horizon() / 2);
  ReplayEngine::Scratch scratch;
  Rng rng(5011);
  const int replays = 20;
  for (int i = 0; i < replays; ++i) {
    const CrashScenario scenario = sampler.sample(rng);
    const CrashResult& incr = engine.replay(scenario, scratch);
    // The naive reference costs O(resources) per event; spot-check a few.
    if (i % 5 == 0)
      expect_identical(simulate_crashes(schedule, *s.costs, scenario), incr,
                       "draw " + std::to_string(i));
  }
  const ReplayEngine::Scratch::Counters& work = scratch.counters();
  ASSERT_GT(work.events, 0u);
  EXPECT_LE(static_cast<double>(work.recomputes),
            10.0 * static_cast<double>(work.events));
  EXPECT_LE(work.handoff_checks, 2 * handoff_ops * replays);
}

}  // namespace
}  // namespace caft
