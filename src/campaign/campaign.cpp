#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"
#include "sim/crash_sim.hpp"
#include "sim/replay_engine.hpp"

namespace caft {

namespace {

/// Entry cap of the wave executor's record memo. On reaching it the memo is
/// cleared (clear-on-threshold eviction) and keeps memoising.
constexpr std::size_t kMemoCapacity = std::size_t{1} << 15;

/// θ-quantization of one crash time: dead-from-start stays 0, never-failing
/// stays +inf, and a finite positive time snaps to the midpoint of its
/// width-wide bucket.
double snap_crash_time(double t, double width) {
  if (t <= 0.0) return 0.0;
  if (t == std::numeric_limits<double>::infinity()) return t;
  return (std::floor(t / width) + 0.5) * width;
}

ReplayRecord to_record(const CrashResult& result, std::size_t failed_count) {
  ReplayRecord record;
  record.success = result.success;
  record.order_deadlock = result.order_deadlock;
  record.latency = result.latency;
  record.delivered_messages = result.delivered_messages;
  record.order_relaxations = result.order_relaxations;
  record.failed_count = failed_count;
  return record;
}

/// Shared core of run_campaign and run_campaign_block: executes the
/// contiguous replays [first, first + count) of the canonical scenario
/// stream in bounded waves and hands each wave's records — in canonical
/// replay order — to `sink(records, wave_size)`; a sink that returns false
/// stops the range after its wave (run_campaign's --target-ci-width early
/// stopping). The stream position is a function of (seed, first) alone: the
/// master Rng is advanced one split per replay, so any block of any
/// partition draws exactly the scenarios the full campaign would have drawn
/// at those indices.
template <typename Sink>
void run_replay_range(const Schedule& schedule, const CostModel& costs,
                      const ScenarioSampler& sampler,
                      const CampaignOptions& options, std::size_t first,
                      std::size_t count, CampaignTelemetry* telemetry,
                      Sink&& sink) {
  CAFT_CHECK_MSG(sampler.proc_count() == schedule.platform().proc_count(),
                 "sampler platform size does not match the schedule");
  CAFT_CHECK_MSG(schedule.complete(), "schedule is incomplete");
  CAFT_CHECK_MSG(options.block > 0, "block size must be positive");
  CAFT_CHECK_MSG(options.theta_bucket_width >= 0.0 &&
                     !std::isnan(options.theta_bucket_width),
                 "theta bucket width must be non-negative");

  const std::size_t threads =
      std::max<std::size_t>(1, options.threads == 0 ? default_thread_count()
                                                    : options.threads);

  // Observability is strictly write-only from here on: when the global
  // registry is disabled (the default) every call below is a relaxed load
  // plus a branch, and nothing it records ever feeds back into a replay.
  obs::Registry& registry = obs::Registry::global();
  obs::Span range_span = registry.span("campaign.range");
  obs::Histogram wave_seconds = registry.histogram("campaign.wave.seconds");
  obs::Counter replays_counter = registry.counter("campaign.replays");
  obs::Counter waves_counter = registry.counter("campaign.blocks");
  const std::chrono::steady_clock::time_point range_begin =
      std::chrono::steady_clock::now();

  // The prefix-cached engine is built once per campaign and shared
  // read-only by every worker (each worker owns its Scratch). A
  // caller-supplied prebuilt engine (the campaign server's cached replay
  // template) short-circuits construction entirely — same const sharing,
  // same results, by the engine's purity contract.
  const ReplayEngine* engine = options.prebuilt_engine;
  std::unique_ptr<ReplayEngine> owned_engine;
  if (engine == nullptr && options.engine == CampaignEngine::kIncremental) {
    owned_engine = std::make_unique<ReplayEngine>(schedule, costs);
    engine = owned_engine.get();
  }
  const double width = options.theta_bucket_width;

  Rng master(options.seed);
  // Fast-forward to replay `first`: exactly one split per earlier replay —
  // the sampler draws from the split stream, never from the master.
  for (std::size_t i = 0; i < first; ++i) (void)master.split();

  std::vector<CrashScenario> scenarios;
  std::vector<std::size_t> order;
  std::vector<std::size_t> group_start;
  std::vector<double> times;
  std::vector<double> firsts;
  std::vector<ReplayRecord> records;
  // Groups the memo could not answer, in canonical group order, and the
  // memo key of each (empty when the group is not memoisable).
  std::vector<std::size_t> misses;
  std::vector<std::string> miss_keys;
  // The record memo: snapped crash-time bytes -> record. A record is a pure
  // function of its (snapped) scenario, so a hit is bit-identical to a
  // replay. Single-threaded: it is read while grouping and written after
  // the join, so its counters are independent of the thread count.
  std::unordered_map<std::string, ReplayRecord> memo;
  std::uint64_t memo_lookups = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_evictions = 0;
  // One scratch per worker slot, persistent across waves: buffers survive,
  // so steady-state waves allocate nothing.
  std::vector<ReplayEngine::Scratch> scratches(threads);
  std::size_t successes = 0;
  std::size_t waves = 0;
  std::size_t done = 0;
  bool keep_going = true;
  while (done < count && keep_going) {
    const std::size_t wave = std::min(options.block, count - done);
    obs::Span wave_span = registry.span("campaign.wave");
    const std::chrono::steady_clock::time_point wave_begin =
        std::chrono::steady_clock::now();

    // Scenarios are drawn sequentially in global replay order, each from
    // its own split stream: neither the thread schedule, the block size nor
    // the engine can influence any draw. θ-quantization snaps each draw
    // here, before anything else sees it.
    const std::size_t m = sampler.proc_count();
    scenarios.clear();
    scenarios.reserve(wave);
    for (std::size_t i = 0; i < wave; ++i) {
      Rng stream = master.split();
      scenarios.push_back(sampler.sample(stream));
      if (width > 0.0)
        for (std::size_t p = 0; p < m; ++p) {
          const ProcId proc(static_cast<ProcId::value_type>(p));
          scenarios.back().set_crash_time(
              proc, snap_crash_time(scenarios.back().crash_time(proc), width));
        }
    }

    // Execute the wave sorted by earliest crash time, then by the full
    // crash-time vector: neighbouring replays branch from the same (or
    // adjacent) fault-free snapshots, and *identical* scenarios (a uniform-k
    // wave of 1024 draws covers only C(m, k) distinct masks) become adjacent
    // runs. Each run is replayed once and its record copied to every index —
    // sound because a record is a pure function of its scenario, so the
    // copies are bit-identical to replaying each index individually.
    // Results land in replay order regardless, so the sink below never sees
    // this order and summaries stay independent of the batching.
    // The sort comparator runs O(wave log wave) times; flatten the crash
    // times into one matrix up front so it compares raw doubles instead of
    // going through the checked per-proc accessor.
    times.resize(wave * m);
    firsts.resize(wave);
    for (std::size_t i = 0; i < wave; ++i) {
      double earliest = std::numeric_limits<double>::infinity();
      for (std::size_t p = 0; p < m; ++p) {
        const double t = scenarios[i].crash_time(
            ProcId(static_cast<ProcId::value_type>(p)));
        times[i * m + p] = t;
        earliest = std::min(earliest, t);
      }
      firsts[i] = earliest;
    }
    const auto times_cmp = [&](std::size_t a, std::size_t b) {
      const double* ta = times.data() + a * m;
      const double* tb = times.data() + b * m;
      for (std::size_t p = 0; p < m; ++p)
        if (ta[p] != tb[p]) return ta[p] < tb[p] ? -1 : 1;
      return 0;
    };
    order.resize(wave);
    for (std::size_t i = 0; i < wave; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (firsts[a] != firsts[b]) return firsts[a] < firsts[b];
      const int c = times_cmp(a, b);
      if (c != 0) return c < 0;
      return a < b;
    });
    // Group boundaries of identical-scenario runs in the sorted order.
    group_start.clear();
    for (std::size_t j = 0; j < wave; ++j)
      if (j == 0 || times_cmp(order[j], order[j - 1]) != 0)
        group_start.push_back(j);
    group_start.push_back(wave);
    const std::size_t groups = group_start.size() - 1;

    // Consult the memo for every memoisable group: quantized scenarios
    // (a finite bucket space) and dead-from-start ones (crash times all
    // 0 or +inf: a finite space of C(m, k) dead sets). Hits fill their
    // records here; only misses are dispatched.
    records.assign(wave, ReplayRecord{});
    misses.clear();
    miss_keys.clear();
    const auto fill_group = [&](std::size_t g, const ReplayRecord& record) {
      for (std::size_t j = group_start[g]; j < group_start[g + 1]; ++j)
        records[order[j]] = record;
    };
    for (std::size_t g = 0; g < groups; ++g) {
      const double* t = times.data() + order[group_start[g]] * m;
      std::string key;
      if (width > 0.0 || std::all_of(t, t + m, [](double x) {
            return x <= 0.0 || x == std::numeric_limits<double>::infinity();
          })) {
        key.assign(reinterpret_cast<const char*>(t), m * sizeof(double));
        ++memo_lookups;
        const auto hit = memo.find(key);
        if (hit != memo.end()) {
          ++memo_hits;
          fill_group(g, hit->second);
          continue;
        }
      }
      misses.push_back(g);
      miss_keys.push_back(std::move(key));
    }

    const std::size_t workers = std::min(threads, misses.size());
    const auto worker = [&](std::size_t first_slot) {
      ReplayEngine::Scratch& scratch = scratches[first_slot];
      for (std::size_t k = first_slot; k < misses.size(); k += workers) {
        const std::size_t g = misses[k];
        const std::size_t i = order[group_start[g]];
        // Branch instead of a ternary: the engine path returns a reference
        // (a ternary mixing it with the naive prvalue would force a copy).
        if (engine != nullptr)
          records[i] = to_record(engine->replay(scenarios[i], scratch),
                                 scenarios[i].failed_count());
        else
          records[i] = to_record(simulate_crashes(schedule, costs,
                                                  scenarios[i]),
                                 scenarios[i].failed_count());
        fill_group(g, records[i]);
      }
    };
    if (workers == 1) {
      worker(0);
    } else if (workers > 1) {
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker, t);
      for (std::thread& thread : pool) thread.join();
    }

    // Insert the misses in canonical group order, with clear-on-threshold
    // eviction bounding the memo at kMemoCapacity records.
    for (std::size_t k = 0; k < misses.size(); ++k) {
      if (miss_keys[k].empty()) continue;
      if (memo.size() >= kMemoCapacity) {
        memo.clear();
        ++memo_evictions;
      }
      memo.emplace(std::move(miss_keys[k]),
                   records[order[group_start[misses[k]]]]);
    }

    keep_going = sink(records, wave);
    done += wave;
    ++waves;

    wave_span.finish();
    const std::chrono::duration<double> wave_elapsed =
        std::chrono::steady_clock::now() - wave_begin;
    wave_seconds.observe(wave_elapsed.count());
    replays_counter.add(wave);
    waves_counter.add(1);
    // Success tally and the progress callback run on the campaign thread
    // only — workers never touch them, and neither influences any replay.
    if (options.on_progress) {
      for (std::size_t i = 0; i < wave; ++i)
        if (records[i].success) ++successes;
      CampaignProgress progress;
      progress.replays_done = done;
      progress.replays_total = count;
      progress.successes = successes;
      const WilsonInterval ci = wilson_interval(successes, done);
      progress.ci_width = ci.high - ci.low;
      progress.memo_lookups = memo_lookups;
      progress.memo_hits = memo_hits;
      options.on_progress(progress);
    }
  }

  const std::chrono::duration<double> range_elapsed =
      std::chrono::steady_clock::now() - range_begin;
  range_span.finish();

  // Gather memo/snapshot counters once, for both the telemetry out-param
  // and the registry fold (the registry fold happens only here for the
  // in-process backend; the subprocess coordinator folds worker partials
  // itself, so counts are never doubled).
  CampaignTelemetry gathered;
  gathered.memo_lookups = memo_lookups;
  gathered.memo_hits = memo_hits;
  gathered.memo_evictions = memo_evictions;
  gathered.memo_entries = memo.size();
  if (engine != nullptr) gathered.snapshots = engine->snapshot_count();
  // `done`, not `count`: an early-stopped campaign executed (and folded)
  // only the waves up to its stopping point.
  gathered.replays = done;
  gathered.blocks = waves;
  gathered.workers = threads;
  gathered.wall_seconds = range_elapsed.count();

  if (registry.enabled()) {
    registry.counter("campaign.memo.lookups").add(gathered.memo_lookups);
    registry.counter("campaign.memo.hits").add(gathered.memo_hits);
    registry.counter("campaign.memo.evictions").add(gathered.memo_evictions);
    registry.gauge("campaign.memo.entries")
        .set(static_cast<double>(gathered.memo_entries));
    registry.gauge("campaign.snapshots")
        .set(static_cast<double>(gathered.snapshots));
    if (gathered.wall_seconds > 0.0)
      registry.gauge("campaign.replays_per_second")
          .set(static_cast<double>(gathered.replays) / gathered.wall_seconds);
  }

  if (telemetry != nullptr) *telemetry = gathered;
}

}  // namespace

void fold_replay_record(CampaignAccumulator& accumulator,
                        const ReplayRecord& record) {
  CrashResult result;
  result.success = record.success;
  result.order_deadlock = record.order_deadlock;
  result.latency = record.latency;
  result.delivered_messages = record.delivered_messages;
  result.order_relaxations = record.order_relaxations;
  accumulator.add(record.failed_count, result);
}

std::vector<ReplayRecord> run_campaign_block(const Schedule& schedule,
                                             const CostModel& costs,
                                             const ScenarioSampler& sampler,
                                             const CampaignOptions& options,
                                             std::size_t first,
                                             std::size_t count,
                                             CampaignTelemetry* telemetry) {
  std::vector<ReplayRecord> all;
  all.reserve(count);
  run_replay_range(schedule, costs, sampler, options, first, count, telemetry,
                   [&](const std::vector<ReplayRecord>& records,
                       std::size_t wave) {
                     all.insert(all.end(), records.begin(),
                                records.begin() +
                                    static_cast<std::ptrdiff_t>(wave));
                     return true;  // a block is a fixed slice: never stop
                   });
  return all;
}

void run_campaign_block_streamed(
    const Schedule& schedule, const CostModel& costs,
    const ScenarioSampler& sampler, const CampaignOptions& options,
    std::size_t first, std::size_t count, CampaignTelemetry* telemetry,
    const std::function<void(const ReplayRecord* records,
                             std::size_t count)>& sink) {
  run_replay_range(schedule, costs, sampler, options, first, count, telemetry,
                   [&](const std::vector<ReplayRecord>& records,
                       std::size_t wave) {
                     sink(records.data(), wave);
                     return true;  // a block is a fixed slice: never stop
                   });
}

CampaignSummary run_campaign(const Schedule& schedule, const CostModel& costs,
                             const ScenarioSampler& sampler,
                             const CampaignOptions& options,
                             CampaignTelemetry* telemetry) {
  CAFT_CHECK_MSG(options.target_ci_width == 0.0 ||
                     (std::isfinite(options.target_ci_width) &&
                      options.target_ci_width > 0.0 &&
                      options.target_ci_width < 1.0),
                 "target CI width must be in (0, 1)");
  CampaignAccumulator accumulator(schedule.eps(), options.quantiles);
  accumulator.set_sampler_name(sampler.name());
  // Fold in replay order, one wave at a time — memory stays O(block). With
  // a target CI width the fold also answers "keep going?": the campaign
  // stops after the first wave whose folded prefix satisfies the target, so
  // the stopping point is a pure function of (seed, block) — wave
  // boundaries are, and the prefix's records are, by the determinism
  // contract above.
  std::size_t done = 0;
  std::size_t successes = 0;
  run_replay_range(schedule, costs, sampler, options, 0, options.replays,
                   telemetry,
                   [&](const std::vector<ReplayRecord>& records,
                       std::size_t wave) {
                     for (std::size_t i = 0; i < wave; ++i)
                       fold_replay_record(accumulator, records[i]);
                     if (options.target_ci_width <= 0.0) return true;
                     done += wave;
                     for (std::size_t i = 0; i < wave; ++i)
                       if (records[i].success) ++successes;
                     const WilsonInterval ci =
                         wilson_interval(successes, done);
                     return ci.high - ci.low > options.target_ci_width;
                   });
  return accumulator.summary();
}

}  // namespace caft
