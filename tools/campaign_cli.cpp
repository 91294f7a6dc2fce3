/// campaign_cli — Monte-Carlo fault-injection campaigns from the command
/// line: build (or load) an instance, schedule it with any set of
/// registered algorithms, replay each schedule under thousands of sampled
/// crash scenarios, and print a side-by-side comparison table.
///
/// The CLI is a thin shell over the ftsched:: facade: `--algos` names are
/// resolved through the SchedulerRegistry (unknown names list the known
/// ones), the sampler flags populate an ftsched::SamplerSpec, and the
/// campaigns themselves run through ftsched::Session — the same service
/// layer library consumers use, so CLI results and API results are
/// bit-for-bit identical.
///
/// Examples:
///   campaign_cli --replays 2000 --procs 10 --eps 2 --granularity 1.0
///   campaign_cli --sampler exp --rate 0.001 --replays 5000 --algos caft
///   campaign_cli --sampler window --k 2 --theta-lo 0 --theta-hi 200
///   campaign_cli --sampler groups --group-size 5 --group-prob 0.1
///   campaign_cli --in instance.txt --replays 1000 --csv camp --json camp
///   campaign_cli --algos caft,caft-batch,ftsa,ftbar,heft --replays 500
///
/// Samplers (--sampler):
///   uniform   k distinct processors dead from t=0 (paper model; default,
///             k defaults to eps)
///   exp       per-processor exponential lifetimes (--rate; --horizon
///             censors lifetimes beyond the mission to "never fails")
///   weibull   per-processor Weibull lifetimes (--shape, --scale, --horizon)
///   window    k processors crash at theta ~ U[--theta-lo, --theta-hi]
///   groups    contiguous groups of --group-size fail together with
///             probability --group-prob at theta ~ U[--theta-lo, --theta-hi]
///
/// The campaign seed, replay count and thread count (--seed, --replays,
/// --threads; 0 threads = auto) apply identically to every algorithm, so
/// the comparison is paired: same scenario stream for each schedule.
///
/// --engine naive|incremental (default incremental) picks the replay
/// implementation: `incremental` is the prefix-cached ReplayEngine,
/// `naive` re-simulates every scenario from t=0. Both produce bit-for-bit
/// identical reports — the flag exists for A/B validation and benchmarks.
///
/// --theta-buckets N (default 0 = off) quantizes crash-at-θ scenarios:
/// each finite positive crash time snaps to the midpoint of one of N
/// buckets of the schedule horizon before the campaign groups, memoises
/// and replays it — a deterministic approximation whose drift is bounded
/// by the bucket width, identical under either engine. --theta-buckets 0
/// keeps every replay bit-exact.
/// Numeric/choice flags are validated strictly; malformed values abort
/// with a clear error instead of silently falling back to defaults, and a
/// flag the tool does not declare aborts with "unknown flag --x" (exit
/// status 2) before anything runs.
///
/// --exec in-process|subprocess (default in-process) picks where campaigns
/// run. `subprocess` fans each campaign out to --workers worker processes
/// (each running --worker-threads threads): the scenario stream is split
/// into contiguous blocks, failed workers are retried, and the partial
/// results are folded back in canonical scenario order — reports are
/// byte-identical to in-process runs by construction. --worker-cmd names
/// the worker binary (default: this binary).
///
/// The subprocess coordinator folds worker records *streamingly* (PR 7):
/// completed blocks enter a bounded reorder window and fold into the
/// summary the moment they are next in canonical scenario order, so
/// coordinator memory is O(--reorder-window × --block-replays) records
/// regardless of --replays. --block-replays N sets the replays per worker
/// block (0 = auto, ~4 blocks per worker); --reorder-window W caps the
/// blocks past the fold frontier (0 = auto, max(2 × workers, 4)). Neither
/// knob can change a report.
///
/// --target-ci-width W (off by default) stops the campaign early once the
/// Wilson 95% CI around the folded prefix's success rate is at most W
/// wide; the summary then covers a contiguous canonical prefix of the
/// scenario stream. In-process the cut lands at a wave boundary, a
/// deterministic function of (--seed, the session block size) — reruns are
/// byte-identical. On the subprocess backend the stopping point
/// additionally depends on worker completion timing: deterministic per
/// stopping point, intentionally NOT byte-identical across runs.
///
/// --worker is the worker side of that protocol: read one serialized work
/// order (api/campaign_wire.hpp) on stdin, replay the requested scenario
/// block, emit the partial result on stdout — records stream out in
/// sub-block chunks as waves complete. Spawned by the coordinator; not for
/// interactive use.
///
/// Observability (all inert — reports are byte-identical with or without):
///   --trace-out FILE    Chrome trace-event JSON of the run (scheduler
///                       phases, campaign waves, per-worker subprocess
///                       spans); open in Perfetto or about:tracing.
///   --metrics-out FILE  caft-metrics/v1 JSON snapshot (counters, gauges,
///                       histograms, build provenance).
///   --progress          live heartbeat on stderr: replays/s, Wilson CI
///                       width, memo hit rate, ETA. Rejected in --worker
///                       mode (a worker's stderr belongs to its failure
///                       diagnostics).
///   --version           print build provenance (git SHA, compiler, build
///                       type) and exit.
/// Both files are validated writable up front and written on completion;
/// the confirmation lines go to stderr so stdout stays byte-stable.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "campaign/progress.hpp"
#include "campaign/stats.hpp"
#include "campaign_spec_cli.hpp"
#include "common/build_info.hpp"
#include "common/cli_args.hpp"
#include "dag/generators.hpp"
#include "obs/obs.hpp"
#include "platform/cost_synthesis.hpp"

namespace {

using namespace caft;
using ftsched::tools::arm_observability;
using ftsched::tools::build_campaign_spec;
using ftsched::tools::declare_flags;
using ftsched::tools::observability_flags;
using ftsched::tools::spec_flags;
using ftsched::tools::table_flags;
using ftsched::tools::write_observability_outputs;
using ftsched::tools::write_table_outputs;

using Args = CliArgs;

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse_or_exit(
      argc, argv,
      declare_flags({"help", "version", "worker", "progress", "in",
                     "instance-seed", "tasks", "granularity", "procs", "eps",
                     "threads", "engine", "exec", "worker-cmd", "workers",
                     "worker-threads", "block-replays", "reorder-window"},
                    {spec_flags(), observability_flags(), table_flags()}));
  // Explicitly requested help is a success, on stdout (the docs gate
  // probes it; see tools/check_docs.py).
  if (args.has("help")) {
    std::printf("see the header of tools/campaign_cli.cpp for usage "
                "and examples\n");
    return 0;
  }
  if (args.has("version")) {
    std::printf("%s\n", caft::version_line().c_str());
    return 0;
  }
  // Worker mode: one wire-protocol exchange on stdin/stdout, nothing else
  // on stdout (the coordinator parses it). Errors go to stderr + exit 1,
  // which the coordinator treats as a retryable worker failure.
  if (args.has("worker")) {
    try {
      // A worker's stderr is its failure diagnostics channel — refuse the
      // heartbeat rather than interleave the two. Traces/metrics are fine:
      // they land in their own files (one per worker invocation).
      CAFT_CHECK_MSG(!args.has("progress"),
                     "--progress conflicts with --worker (the coordinator "
                     "owns progress reporting; worker stderr carries "
                     "failure diagnostics)");
      arm_observability(args);
      ftsched::run_campaign_worker(std::cin, std::cout);
      write_observability_outputs(args);
      return 0;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "worker error: %s\n", error.what());
      return 1;
    }
  }
  try {
    arm_observability(args);
    // --- instance: load from file or generate the paper's random protocol.
    std::unique_ptr<ftsched::Instance> instance;
    if (args.has("in")) {
      instance = std::make_unique<ftsched::Instance>(
          ftsched::Instance::load(args.get("in")));
    } else {
      Rng rng(args.get_size("instance-seed", 42));
      RandomDagParams dag;
      if (args.has("tasks")) {
        dag.min_tasks = args.get_size("tasks", 100);
        dag.max_tasks = dag.min_tasks;
      }
      TaskGraph graph = random_dag(dag, rng);
      CostSynthesisParams params;
      params.granularity = args.get_double("granularity", 1.0);
      instance = std::make_unique<ftsched::Instance>(
          std::move(graph), Platform(args.get_size("procs", 10)), params, rng);
    }
    const std::size_t m = instance->proc_count();
    instance->set_eps(args.get_size("eps", 1));

    // --- session: execution policy (threads, engine).
    ftsched::SessionOptions session_options;
    session_options.threads = args.get_size("threads", 0);
    session_options.engine =
        args.get_choice("engine", "incremental", {"incremental", "naive"}) ==
                "incremental"
            ? CampaignEngine::kIncremental
            : CampaignEngine::kNaive;
    // Process-parallel backend: fan blocks out to --workers copies of
    // --worker-cmd (default: this very binary) instead of running the
    // campaign in this process. Summaries are byte-identical either way.
    if (args.get_choice("exec", "in-process",
                        {"in-process", "subprocess"}) == "subprocess") {
      session_options.exec = ftsched::ExecutionPolicy::subprocess(
          args.get("worker-cmd", argv[0]), args.get_size("workers", 2));
      session_options.exec.worker_threads =
          args.get_size("worker-threads", 1);
      // Streaming-fold knobs: replays per worker block and how many blocks
      // may sit past the fold frontier at once (coordinator memory is
      // O(reorder-window × block-replays) records). 0 = auto for both.
      session_options.exec.block_replays = args.get_size("block-replays", 0);
      session_options.exec.reorder_window =
          args.get_size("reorder-window", 0);
    }
    // One heartbeat shared across every campaign of this run, behind a
    // shared_ptr because std::function copies its callable: finish() below
    // must see the same throttle state the callbacks updated.
    std::shared_ptr<ProgressHeartbeat> heartbeat;
    if (args.has("progress")) {
      heartbeat = std::make_shared<ProgressHeartbeat>();
      session_options.on_progress =
          [heartbeat](const caft::CampaignProgress& progress) {
            (*heartbeat)(progress);
          };
    }
    const ftsched::Session session(session_options);

    // --- spec: algorithms, sampler distribution, replay/seed budget (the
    // shared flag surface — campaign_client builds its spec identically).
    const ftsched::CampaignSpec spec =
        build_campaign_spec(args, instance->eps());

    const std::string sampler_name = spec.sampler.name(m);
    std::printf("instance: %zu tasks, %zu edges, m=%zu, eps=%zu\n",
                instance->graph().task_count(),
                instance->graph().edge_count(), m, instance->eps());
    std::printf("campaign: %zu replays of %s, seed %llu, engine %s\n\n",
                spec.replays, sampler_name.c_str(),
                static_cast<unsigned long long>(spec.seed),
                session_options.engine == CampaignEngine::kIncremental
                    ? "incremental"
                    : "naive");

    // --- schedule each algorithm via the registry and run the campaigns.
    // One evaluate_schedule call per algorithm (rather than one
    // Session::evaluate for the whole spec) so the progress line prints
    // *before* its campaign runs — long campaigns show live progress.
    ftsched::CampaignReport report;
    report.runs.reserve(spec.algorithms.size());
    for (const std::string& algo : spec.algorithms) {
      ftsched::ScheduleResult scheduled =
          ftsched::SchedulerRegistry::global().make(algo)->schedule(
              *instance, spec.request);
      std::printf("%s: 0-crash latency %.2f, upper bound %.2f, "
                  "%zu messages — running campaign...\n",
                  ftsched::display_name(algo).c_str(), scheduled.makespan,
                  scheduled.upper_bound, scheduled.messages);
      std::fflush(stdout);
      const ftsched::CampaignRun& run = report.runs.emplace_back(
          session.evaluate_schedule(*instance, std::move(scheduled), spec));
      // Terminal heartbeat line: the campaign is complete, so flush the
      // state the 200 ms throttle may have swallowed — without this, a
      // last block landing inside the throttle window (or an early-stopped
      // campaign, which never reaches replays_total) leaves the heartbeat
      // frozen below its final count.
      if (heartbeat) heartbeat->finish();
      // Quantization is an opt-in approximation; surface its effect. (Not
      // printed otherwise, so exact reports stay byte-stable.)
      if (spec.theta_buckets > 0)
        std::printf("  theta buckets: %zu (width %.4f), memo hit rate "
                    "%.1f%% over %llu lookups\n",
                    spec.theta_buckets, run.theta_bucket_width,
                    run.telemetry.memo_lookups == 0
                        ? 0.0
                        : 100.0 *
                              static_cast<double>(run.telemetry.memo_hits) /
                              static_cast<double>(run.telemetry.memo_lookups),
                    static_cast<unsigned long long>(
                        run.telemetry.memo_lookups));
    }
    std::printf("\n");

    const Table table = campaign_table("fault-injection campaign — " +
                                           sampler_name,
                                       report.summary_rows());
    if (const int rc = write_table_outputs(args, table); rc != 0) return rc;

    // Before the Proposition check so the artifacts exist even when a
    // violated run exits 1 — that is exactly the run worth inspecting.
    write_observability_outputs(args);

    // Proposition 5.2 check: every within-eps replay must have survived.
    // (HEFT, when campaigned, schedules at ε=0, so its within-eps replays
    // are the 0-failure ones — the check still applies.)
    for (const ftsched::CampaignRun& run : report.runs) {
      const CampaignSummary& s = run.summary;
      if (s.successes_within_eps != s.replays_within_eps) {
        std::fprintf(stderr,
                     "WARNING: %s lost %zu of %zu replays with <= eps "
                     "failures — Proposition 5.2 violated\n",
                     ftsched::display_name(run.algorithm).c_str(),
                     s.replays_within_eps - s.successes_within_eps,
                     s.replays_within_eps);
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
