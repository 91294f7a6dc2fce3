/// \file campaign.hpp
/// Monte-Carlo fault-injection campaign: fans N crash replays of one
/// committed schedule across worker threads and folds the outcomes into a
/// streaming CampaignSummary (campaign/stats.hpp).
///
/// Where the paper re-executes each schedule under a *single* uniformly
/// drawn crash set per repetition (Section 6, "With c Crash"), a campaign
/// asks the distributional questions: empirical success probability with a
/// confidence interval, latency quantiles under stochastic lifetimes,
/// behaviour beyond ε failures.
///
/// Determinism contract (same as run_experiment): every replay owns a
/// pre-split Rng stream, drawn from the master stream in replay order, and
/// the fold also happens in replay order — so the summary is bit-for-bit
/// identical for 1 thread and N threads and for any block size. Every
/// replay runs through the prefix-cached ReplayEngine, which is
/// replay-for-replay bit-identical to simulate_crashes (see
/// sim/replay_engine.hpp). θ-quantization
/// (CampaignOptions::theta_bucket_width) is the one knob that changes the
/// summary — deterministically, never as a function of threads. Replays are
/// simulated in bounded blocks, so memory stays O(block + threads), not
/// O(replays).
///
/// Each wave draws its scenarios into one reused W × m crash-time matrix
/// (ScenarioSampler::sample_into). Identical rows are grouped by one O(W)
/// pass over an open-addressing hash table keyed on the row's bytes; only
/// the distinct groups are sorted, by earliest crash time and then by the
/// crash-time vector, so consecutive replays branch from nearby prefix
/// snapshots (maximizing the engine's prefix reuse). Each group
/// is replayed once. A record memo owned by the executor answers groups
/// already seen in earlier waves. Results are still folded in replay
/// order — execution order and memo hits are unobservable. A steady-state
/// wave whose groups all hit the memo allocates nothing and starts no
/// thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "campaign/scenario_sampler.hpp"
#include "campaign/stats.hpp"
#include "platform/cost_model.hpp"
#include "sched/schedule.hpp"

namespace caft {

class ReplayEngine;  // sim/replay_engine.hpp (CampaignOptions hook below)

/// Live progress of a campaign, delivered after each completed wave (or,
/// for the subprocess backend, each folded block). Observability only:
/// consumers may print heartbeats from it but must never feed it back into
/// scheduling or replay decisions — the summary does not depend on whether
/// anyone listens.
struct CampaignProgress {
  std::size_t replays_done = 0;   ///< replays folded so far
  std::size_t replays_total = 0;  ///< campaign size
  std::size_t successes = 0;      ///< successful replays among done
  std::uint64_t memo_lookups = 0;  ///< record-memo lookups so far
  std::uint64_t memo_hits = 0;     ///< record-memo hits so far
  /// Width of the Wilson 95% interval around the success rate of the folded
  /// prefix (1.0 until anything folds). What --target-ci-width early
  /// stopping watches; observational like every other field here.
  double ci_width = 1.0;
};

/// Upper bound of CampaignOptions::threads (and of the thread count 0
/// resolves to). It sizes one replay scratch per thread.
inline constexpr std::size_t kMaxCampaignThreads = 1024;
/// Upper bound of CampaignOptions::block. It sizes the wave's W × m
/// crash-time matrix: at most 32 MiB on the 64 processors an Instance
/// admits.
inline constexpr std::size_t kMaxCampaignBlock = std::size_t{1} << 16;

/// Knobs of one campaign run.
struct CampaignOptions {
  std::size_t replays = 1000;
  std::uint64_t seed = 20080201;
  /// Worker threads; 0 = default_thread_count() (CAFT_THREADS env, else
  /// hardware concurrency). At most kMaxCampaignThreads.
  std::size_t threads = 0;
  /// Replays simulated per parallel wave; bounds peak memory. The summary
  /// does not depend on it. In [1, kMaxCampaignBlock].
  std::size_t block = 1024;
  /// Latency quantiles to estimate, each in (0, 1).
  std::vector<double> quantiles = {0.5, 0.9, 0.99};
  /// θ-quantization bucket width; 0 (the default) keeps every replay
  /// bit-exact. With a positive width, each drawn scenario is snapped
  /// before it is grouped or replayed: every finite positive crash time
  /// moves to the midpoint of its bucket. Summaries drift by at most
  /// width/2 per crash time but stay deterministic and thread-count
  /// independent.
  double theta_bucket_width = 0.0;
  /// Progress callback, invoked after each completed wave from the thread
  /// that runs the campaign (never from worker threads). Purely
  /// observational — the summary is identical whether it is set or not.
  std::function<void(const CampaignProgress&)> on_progress;
  /// Early stopping: stop launching new waves once the Wilson 95% interval
  /// around the folded prefix's success rate is at most this wide (0 = off,
  /// run the full budget). Checked at wave boundaries after the wave folds,
  /// so the stopping point — and therefore the summary — is a deterministic
  /// function of (seed, block): still independent of threads, but `block`
  /// joins the summary-relevant knobs whenever this is set. Honoured by
  /// run_campaign only; run_campaign_block runs its exact range regardless
  /// (a block is a fixed slice of someone else's campaign).
  double target_ci_width = 0.0;
  /// Replay-template reuse hook for services that cache ReplayEngines
  /// across campaigns (the campaign server): a non-null engine — which MUST
  /// have been built from this campaign's schedule/costs — is used instead
  /// of constructing one. Summary-neutral by the
  /// engine's own contract: replays are pure functions of (schedule, costs,
  /// scenario), and the engine is const-shared across worker threads
  /// exactly as an owned one would be. The caller keeps it alive for the
  /// duration of the call.
  const ReplayEngine* prebuilt_engine = nullptr;
};

/// Optional observability output of run_campaign — record-memo
/// effectiveness and snapshot count. Purely informational: nothing here
/// feeds back into the summary.
struct CampaignTelemetry {
  std::uint64_t memo_lookups = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_evictions = 0;  ///< clear-on-threshold memo resets
  std::size_t memo_entries = 0;      ///< memo records resident at the end
  std::size_t snapshots = 0;         ///< prefix snapshots the engine stored
  // Execution-shape counters (PR 6): identical semantics for the
  // in-process and subprocess backends, so Session can report one story.
  // wall_seconds is the only non-deterministic field; everything else is a
  // pure function of the campaign configuration.
  std::size_t replays = 0;       ///< replays executed and folded
  std::size_t blocks = 0;        ///< waves (in-process) or wire blocks
  std::size_t workers = 0;       ///< worker threads or subprocess slots
  std::size_t worker_retries = 0;  ///< subprocess blocks retried (0 in-proc)
  double wall_seconds = 0.0;     ///< campaign wall time (steady_clock)
  /// Most blocks the subprocess coordinator's fold buffer ever held at
  /// once — the streaming fold's actual peak, bounded by max(2 × workers,
  /// 4). 0 for the in-process backend, whose fold is wave-by-wave and
  /// never buffers.
  std::size_t fold_window_peak = 0;
};

/// Publishes a finished campaign's record-memo counters, snapshot count and
/// replays-per-second rate (telemetry.replays / telemetry.wall_seconds) to
/// the global obs registry; a no-op while the registry is disabled. The one
/// publisher for both backends: the executor calls it at the end of every
/// replay range (run_campaign and the block runners), the subprocess
/// coordinator for the worker telemetry it folded.
void publish_campaign_metrics(const CampaignTelemetry& telemetry);

/// Compact outcome of one replay: exactly what the accumulator folds,
/// nothing else (the full CrashResult with its per-replica matrices never
/// outlives its worker). Records are a pure function of (schedule, costs,
/// scenario, θ-quantization width) — never of threads, block size or memo
/// hits — which is what lets campaign blocks be computed in
/// other processes and folded back bit-identically.
struct ReplayRecord {
  bool success = false;
  bool order_deadlock = false;
  double latency = 0.0;
  std::size_t delivered_messages = 0;
  std::size_t order_relaxations = 0;
  std::size_t failed_count = 0;  ///< processors the scenario crashed
};

/// Folds one record into `accumulator` — the single fold step shared by
/// run_campaign and the process-scale-out coordinator, so both produce the
/// same summary from the same record stream.
void fold_replay_record(CampaignAccumulator& accumulator,
                        const ReplayRecord& record);

/// Runs the contiguous replays [first, first + count) of the campaign's
/// canonical scenario stream (the stream run_campaign draws for the same
/// seed — `options.replays` is ignored here) and returns their records in
/// canonical replay order. Concatenating the blocks of any partition of
/// [0, N) reproduces run_campaign's record stream exactly; this is the
/// worker half of the subprocess campaign backend (api/session.hpp).
[[nodiscard]] std::vector<ReplayRecord> run_campaign_block(
    const Schedule& schedule, const CostModel& costs,
    const ScenarioSampler& sampler, const CampaignOptions& options,
    std::size_t first, std::size_t count,
    CampaignTelemetry* telemetry = nullptr);

/// Streaming form of run_campaign_block: identical record stream, but each
/// completed wave (options.block records at most) is handed to `sink` in
/// canonical replay order and then discarded, so the caller — the
/// subprocess worker writing records onto its stdout pipe — never holds
/// more than one wave in memory. Concatenating the sink chunks reproduces
/// run_campaign_block's return value exactly.
void run_campaign_block_streamed(
    const Schedule& schedule, const CostModel& costs,
    const ScenarioSampler& sampler, const CampaignOptions& options,
    std::size_t first, std::size_t count, CampaignTelemetry* telemetry,
    const std::function<void(const ReplayRecord* records, std::size_t count)>&
        sink);

/// Runs `options.replays` crash replays of `schedule` under scenarios drawn
/// from `sampler` and returns the folded summary. `telemetry`, when
/// non-null, receives memo/snapshot counters.
[[nodiscard]] CampaignSummary run_campaign(const Schedule& schedule,
                                           const CostModel& costs,
                                           const ScenarioSampler& sampler,
                                           const CampaignOptions& options,
                                           CampaignTelemetry* telemetry =
                                               nullptr);

}  // namespace caft
