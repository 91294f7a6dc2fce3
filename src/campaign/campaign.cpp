#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
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

/// Hash of `words` 64-bit words, mixed one word per step rather than one
/// byte (a byte-wise loop was about five times slower on crash-time rows).
/// Rows differ mostly in their high bits (0.0 against +inf), so each step
/// folds the high half back down before the next multiply.
std::uint64_t hash_words(const char* bytes, std::size_t words) {
  std::uint64_t h = words;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, bytes + i * sizeof w, sizeof w);
    h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
  }
  // MurmurHash3's 64-bit finalizer: every bit reaches the low bits the
  // tables index with.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

/// The record memo's key is a row's crash-time bytes. The transparent hash
/// lets a lookup go through a string_view of the row, so only an insert
/// allocates a key.
struct RowKeyHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view key) const {
    return hash_words(key.data(), key.size() / sizeof(double));
  }
};

std::string_view row_key(const double* row, std::size_t m) {
  return {reinterpret_cast<const char*>(row), m * sizeof(double)};
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
  CAFT_CHECK_MSG(options.block <= kMaxCampaignBlock,
                 "block size exceeds the cap of " +
                     std::to_string(kMaxCampaignBlock) + " replays");
  CAFT_CHECK_MSG(options.theta_bucket_width >= 0.0 &&
                     !std::isnan(options.theta_bucket_width),
                 "theta bucket width must be non-negative");

  const std::size_t threads =
      std::max<std::size_t>(1, options.threads == 0 ? default_thread_count()
                                                    : options.threads);
  CAFT_CHECK_MSG(threads <= kMaxCampaignThreads,
                 "thread count exceeds the cap of " +
                     std::to_string(kMaxCampaignThreads));

  // Observability is strictly write-only from here on: when the global
  // registry is disabled (the default) every call below is a relaxed load
  // plus a branch — no clock read, no allocation — and nothing it records
  // ever feeds back into a replay.
  obs::Registry& registry = obs::Registry::global();
  obs::Span range_span = registry.span("campaign.range");
  obs::Histogram wave_seconds = registry.histogram("campaign.wave.seconds");
  obs::Histogram stage_seconds[] = {
      registry.histogram("campaign.wave.sample.seconds"),
      registry.histogram("campaign.wave.group.seconds"),
      registry.histogram("campaign.wave.replay.seconds"),
      registry.histogram("campaign.wave.fold.seconds")};
  enum Stage { kSample, kGroup, kReplay, kFold };
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
  if (engine == nullptr) {
    owned_engine = std::make_unique<ReplayEngine>(schedule, costs);
    engine = owned_engine.get();
  }
  const double width = options.theta_bucket_width;
  const std::size_t m = sampler.proc_count();

  Rng master(options.seed);
  // Fast-forward to replay `first`: exactly one split per earlier replay —
  // the sampler draws from the split stream, never from the master.
  for (std::size_t i = 0; i < first; ++i) (void)master.split();

  // Every per-wave buffer is sized once, for the largest wave, so
  // steady-state waves allocate nothing.
  const std::size_t capacity = std::min(options.block, count);
  // The wave's scenarios: row i holds the m crash times of replay i.
  std::vector<double> times(capacity * m);
  // Grouping: group_of[i] is the group of replay i; a group is numbered by
  // its first replay, which is its representative (reps[g]). `slots` is an
  // open-addressing table of group numbers, at most half full.
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  std::size_t table_size = 2;
  while (table_size < 2 * capacity) table_size *= 2;
  const std::size_t mask = table_size - 1;
  std::vector<std::uint32_t> slots(table_size);
  std::vector<std::uint32_t> group_of(capacity);
  std::vector<std::size_t> reps;
  std::vector<double> firsts;
  // Groups in canonical order, and the misses among them (same order).
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> misses;
  std::vector<ReplayRecord> group_records;
  std::vector<ReplayRecord> records(capacity);
  reps.reserve(capacity);
  firsts.reserve(capacity);
  order.reserve(capacity);
  misses.reserve(capacity);
  group_records.reserve(capacity);
  // The record memo: snapped crash-time bytes -> record. A record is a pure
  // function of its (snapped) scenario, so a hit is bit-identical to a
  // replay. Single-threaded: it is read while grouping and written after
  // the join, so its counters are independent of the thread count.
  std::unordered_map<std::string, ReplayRecord, RowKeyHash, std::equal_to<>>
      memo;
  std::uint64_t memo_lookups = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_evictions = 0;
  // Memoisable rows: quantized scenarios (a finite bucket space) and
  // dead-from-start ones (crash times all 0 or +inf: a finite space of
  // C(m, k) dead sets).
  const auto memoisable = [&](const double* t) {
    return width > 0.0 || std::all_of(t, t + m, [](double x) {
             return x <= 0.0 || x == std::numeric_limits<double>::infinity();
           });
  };
  // One scratch and one scenario per worker slot, persistent across waves.
  std::vector<ReplayEngine::Scratch> scratches(threads);
  std::vector<CrashScenario> worker_scenarios(threads,
                                              CrashScenario::none(m));
  std::size_t successes = 0;
  std::size_t waves = 0;
  std::size_t done = 0;
  bool keep_going = true;
  while (done < count && keep_going) {
    const std::size_t wave = std::min(options.block, count - done);
    obs::Span wave_span = registry.span("campaign.wave");
    // Stage timing reads the clock only while the registry is enabled.
    const bool timed = registry.enabled();
    std::chrono::steady_clock::time_point wave_begin;
    std::chrono::steady_clock::time_point lap_begin;
    if (timed) wave_begin = lap_begin = std::chrono::steady_clock::now();
    const auto lap = [&](Stage stage) {
      if (!timed) return;
      const std::chrono::steady_clock::time_point now =
          std::chrono::steady_clock::now();
      stage_seconds[stage].observe(
          std::chrono::duration<double>(now - lap_begin).count());
      lap_begin = now;
    };

    // Scenarios are drawn sequentially in global replay order, each from
    // its own split stream: neither the thread schedule nor the block size
    // can influence any draw. Each row is checked as a
    // CrashScenario would check it; θ-quantization then snaps it (a snap
    // keeps valid times valid) before anything else sees it.
    for (std::size_t i = 0; i < wave; ++i) {
      double* row = times.data() + i * m;
      Rng stream = master.split();
      sampler.sample_into(stream, row);
      CrashScenario::check_times(row, m);
      if (width > 0.0)
        for (std::size_t p = 0; p < m; ++p)
          row[p] = snap_crash_time(row[p], width);
    }
    lap(kSample);

    // Group identical rows in one pass: identical scenarios (a uniform-k
    // wave of 1024 draws covers only C(m, k) distinct masks) are replayed
    // once and their record copied to every index — sound because a record
    // is a pure function of its scenario, so the copies are bit-identical
    // to replaying each index individually.
    std::fill(slots.begin(), slots.end(), kEmpty);
    reps.clear();
    for (std::size_t i = 0; i < wave; ++i) {
      const double* row = times.data() + i * m;
      const std::string_view key = row_key(row, m);
      std::size_t slot = RowKeyHash{}(key) & mask;
      while (slots[slot] != kEmpty &&
             row_key(times.data() + reps[slots[slot]] * m, m) != key)
        slot = (slot + 1) & mask;
      if (slots[slot] == kEmpty) {
        slots[slot] = static_cast<std::uint32_t>(reps.size());
        reps.push_back(i);
      }
      group_of[i] = slots[slot];
    }
    const std::size_t groups = reps.size();

    // Canonical group order: earliest crash time, then the full crash-time
    // vector, so neighbouring replays branch from the same (or adjacent)
    // fault-free snapshots. Memo hits, misses and evictions follow this
    // order; results land in replay order regardless, so the sink never
    // sees it and summaries stay independent of the batching.
    firsts.resize(groups);
    order.resize(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      const double* row = times.data() + reps[g] * m;
      firsts[g] = *std::min_element(row, row + m);
      order[g] = static_cast<std::uint32_t>(g);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (firsts[a] != firsts[b]) return firsts[a] < firsts[b];
                const double* ta = times.data() + reps[a] * m;
                const double* tb = times.data() + reps[b] * m;
                for (std::size_t p = 0; p < m; ++p)
                  if (ta[p] != tb[p]) return ta[p] < tb[p];
                return reps[a] < reps[b];
              });

    // Consult the memo for every memoisable group; hits fill their group
    // record here, and only misses are dispatched.
    group_records.resize(groups);
    misses.clear();
    for (const std::uint32_t g : order) {
      const double* row = times.data() + reps[g] * m;
      if (memoisable(row)) {
        ++memo_lookups;
        const auto hit = memo.find(row_key(row, m));
        if (hit != memo.end()) {
          ++memo_hits;
          group_records[g] = hit->second;
          continue;
        }
      }
      misses.push_back(g);
    }
    lap(kGroup);

    const std::size_t workers = std::min(threads, misses.size());
    const auto worker = [&](std::size_t first_slot) {
      ReplayEngine::Scratch& scratch = scratches[first_slot];
      CrashScenario& scenario = worker_scenarios[first_slot];
      for (std::size_t k = first_slot; k < misses.size(); k += workers) {
        const std::uint32_t g = misses[k];
        scenario.assign(times.data() + reps[g] * m);
        group_records[g] = to_record(engine->replay(scenario, scratch),
                                     scenario.failed_count());
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
    for (const std::uint32_t g : misses) {
      const double* row = times.data() + reps[g] * m;
      if (!memoisable(row)) continue;
      if (memo.size() >= kMemoCapacity) {
        memo.clear();
        ++memo_evictions;
      }
      memo.emplace(std::string(row_key(row, m)), group_records[g]);
    }
    for (std::size_t i = 0; i < wave; ++i)
      records[i] = group_records[group_of[i]];
    lap(kReplay);

    keep_going = sink(records, wave);
    done += wave;
    ++waves;
    lap(kFold);

    wave_span.finish();
    if (timed)
      wave_seconds.observe(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - wave_begin)
                               .count());
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
  // and the registry (published here for the in-process backend; the
  // subprocess coordinator publishes the worker partials it folds, so
  // counts are never doubled).
  CampaignTelemetry gathered;
  gathered.memo_lookups = memo_lookups;
  gathered.memo_hits = memo_hits;
  gathered.memo_evictions = memo_evictions;
  gathered.memo_entries = memo.size();
  gathered.snapshots = engine->snapshot_count();
  // `done`, not `count`: an early-stopped campaign executed (and folded)
  // only the waves up to its stopping point.
  gathered.replays = done;
  gathered.blocks = waves;
  gathered.workers = threads;
  gathered.wall_seconds = range_elapsed.count();

  publish_campaign_metrics(gathered);
  if (telemetry != nullptr) *telemetry = gathered;
  // The engine's work counters, summed over the workers' scratches. Each
  // replay starts from a reset state, so the sums depend only on the
  // scenarios replayed, not on the thread count.
  if (registry.enabled()) {
    ReplayEngine::Scratch::Counters work;
    for (const ReplayEngine::Scratch& scratch : scratches) {
      work.events += scratch.counters().events;
      work.recomputes += scratch.counters().recomputes;
      work.handoff_checks += scratch.counters().handoff_checks;
      work.relaxation_scans += scratch.counters().relaxation_scans;
    }
    registry.counter("sim.replay.events").add(work.events);
    registry.counter("sim.replay.recomputes").add(work.recomputes);
    registry.counter("sim.replay.handoff_checks").add(work.handoff_checks);
    registry.counter("sim.replay.relaxation_scans")
        .add(work.relaxation_scans);
  }
}

}  // namespace

void publish_campaign_metrics(const CampaignTelemetry& telemetry) {
  obs::Registry& registry = obs::Registry::global();
  if (!registry.enabled()) return;
  registry.counter("campaign.memo.lookups").add(telemetry.memo_lookups);
  registry.counter("campaign.memo.hits").add(telemetry.memo_hits);
  registry.counter("campaign.memo.evictions").add(telemetry.memo_evictions);
  registry.gauge("campaign.memo.entries")
      .set(static_cast<double>(telemetry.memo_entries));
  registry.gauge("campaign.snapshots")
      .set(static_cast<double>(telemetry.snapshots));
  if (telemetry.wall_seconds > 0.0)
    registry.gauge("campaign.replays_per_second")
        .set(static_cast<double>(telemetry.replays) / telemetry.wall_seconds);
}

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
