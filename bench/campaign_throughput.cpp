/// Campaign executor throughput: replays/sec of the Monte-Carlo
/// fault-injection campaign versus worker-thread count on a 50-task CAFT
/// schedule (m=10, eps=1), A/B-ing the replay engines:
///
///   --engine naive        simulate_crashes from t=0 for every scenario
///   --engine incremental  prefix-cached ReplayEngine
///   --engine both         (default) run both and report the speedup
///
/// The bench runs through the ftsched:: facade: the schedule comes from
/// SchedulerRegistry::make("caft"), and every cell is one ftsched::Session
/// (the execution policy — threads, engine — is exactly what a Session
/// owns) evaluating the same pre-built schedule.
///
/// Three workloads are swept: the paper's uniform-k sampler (k processors
/// dead from t=0 — the memo-friendly workload: only C(m, k) masks exist),
/// a crash-window sampler over half the schedule horizon (positive crash
/// times — prefix snapshots kick in), and the same crash-window workload
/// with θ-quantization enabled (--theta-buckets equivalent; the record memo
/// hits on snapped scenarios).
///
/// Every *exact* (engine, thread count) cell must produce the
/// bit-for-bit identical summary; any mismatch fails the bench (exit 1).
/// The θ-quantized cells are a deliberate approximation, so they are held
/// to their own gate: identical summaries across all thread counts (the
/// approximation must be deterministic), plus a reported hit rate and
/// drift versus the exact reference. This is the acceptance gate for the
/// determinism contract of sim/replay_engine.hpp.
///
/// CAFT_BENCH_REPS scales the replay count (default 2000). Thread counts
/// swept: 1, 2, 4, 8, and the hardware concurrency when larger.
///
/// --json-out FILE additionally writes every swept cell as one machine-
/// readable JSON document (schema "caft-bench-campaign/v2", documented in
/// docs/benchmarks.md) — CI uploads it per commit so the
/// performance trajectory accumulates.
///
/// When a worker binary is named (--subprocess-cli PATH, or the
/// CAFT_CAMPAIGN_CLI environment variable the subprocess tests already
/// use), a fourth sweep runs the uniform-k workload through the
/// subprocess backend's streaming coordinator at 1/2/4 workers: its cells
/// carry `fold_window_peak` — the coordinator's peak count of buffered
/// blocks — so the bench trajectory tracks coordinator memory as well as
/// throughput, and its summaries must stay byte-identical to in-process.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "campaign/stats.hpp"
#include "common/build_info.hpp"
#include "common/cli_args.hpp"
#include "common/table.hpp"
#include "dag/generators.hpp"
#include "exp/config.hpp"
#include "platform/cost_synthesis.hpp"

namespace {

using namespace caft;
using Clock = std::chrono::steady_clock;

/// Bit-for-bit equality of everything a campaign summary reports.
bool summaries_identical(const CampaignSummary& a, const CampaignSummary& b) {
  if (a.replays != b.replays || a.successes != b.successes ||
      a.replays_within_eps != b.replays_within_eps ||
      a.successes_within_eps != b.successes_within_eps ||
      a.max_failed != b.max_failed ||
      a.order_relaxations != b.order_relaxations ||
      a.order_deadlocks != b.order_deadlocks)
    return false;
  if (a.latency.mean() != b.latency.mean() ||
      a.latency.min() != b.latency.min() ||
      a.latency.max() != b.latency.max() ||
      a.latency.stddev() != b.latency.stddev() ||
      a.delivered_messages.mean() != b.delivered_messages.mean())
    return false;
  if (a.latency_quantiles.size() != b.latency_quantiles.size()) return false;
  for (std::size_t i = 0; i < a.latency_quantiles.size(); ++i)
    if (a.latency_quantiles[i].value != b.latency_quantiles[i].value)
      return false;
  return true;
}

double hit_rate(const CampaignTelemetry& telemetry) {
  return telemetry.memo_lookups == 0
             ? 0.0
             : static_cast<double>(telemetry.memo_hits) /
                   static_cast<double>(telemetry.memo_lookups);
}

/// One swept (workload, engine, threads) cell, for --json-out.
struct BenchCell {
  std::string workload;
  std::string engine;
  std::size_t threads = 0;
  double seconds = 0.0;
  double replays_per_sec = 0.0;
  double memo_hit_rate = 0.0;
  /// Streaming-coordinator memory: peak blocks buffered past the fold
  /// frontier (subprocess cells only; 0 for in-process cells, whose wave
  /// buffer is bounded by SessionOptions::block by construction).
  std::size_t fold_window_peak = 0;
};

/// Writes the BENCH_campaign.json artifact (schema caft-bench-campaign/v2;
/// see docs/benchmarks.md). Hand-rolled JSON: flat schema,
/// full double precision, no library dependency.
bool write_bench_json(const std::string& path, std::size_t replays,
                      const std::vector<BenchCell>& cells,
                      bool deterministic, bool quantized_deterministic) {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(17);
  const caft::BuildInfo& build = caft::build_info();
  out << "{\n"
      << "  \"schema\": \"caft-bench-campaign/v2\",\n"
      << "  \"build\": {\"git_sha\": \"" << build.git_sha
      << "\", \"compiler\": \"" << build.compiler << "\", \"build_type\": \""
      << build.build_type << "\"},\n"
      << "  \"replays\": " << replays << ",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const BenchCell& cell = cells[i];
    out << "    {\"workload\": \"" << cell.workload << "\", \"engine\": \""
        << cell.engine << "\", \"threads\": " << cell.threads << ", \"seconds\": "
        << cell.seconds << ", \"replays_per_sec\": " << cell.replays_per_sec
        << ", \"memo_hit_rate\": " << cell.memo_hit_rate
        << ", \"fold_window_peak\": " << cell.fold_window_peak << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"gates\": {\"deterministic\": "
      << (deterministic ? "true" : "false")
      << ", \"quantized_deterministic\": "
      << (quantized_deterministic ? "true" : "false") << "}\n"
      << "}\n";
  return static_cast<bool>(out);
}

}  // namespace

int run_bench(int argc, char** argv);

int main(int argc, char** argv) {
  // get_choice / the strict numeric getters throw CheckError on malformed
  // flags; report it as a usage error instead of std::terminate.
  try {
    return run_bench(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}

int run_bench(int argc, char** argv) {
  const CliArgs args(argc, argv, {"engine", "json-out", "subprocess-cli"});
  const std::string engine_arg =
      args.get_choice("engine", "both", {"naive", "incremental", "both"});
  std::vector<std::string> engines;
  if (engine_arg == "naive" || engine_arg == "both") engines.push_back("naive");
  if (engine_arg == "incremental" || engine_arg == "both")
    engines.push_back("incremental");

  const std::size_t replays = bench_reps_from_env(200) * 10;

  // 50-task instance at granularity 1, m = 10, CAFT with eps = 1 — the
  // schedule every cell replays, produced once through the registry.
  Rng rng(7);
  RandomDagParams dag;
  dag.min_tasks = 50;
  dag.max_tasks = 50;
  TaskGraph graph = random_dag(dag, rng);
  CostSynthesisParams cost_params;
  cost_params.granularity = 1.0;
  const ftsched::Instance instance(std::move(graph), Platform(10), cost_params,
                                   rng, ftsched::RunOptions{/*eps=*/1});
  const ftsched::ScheduleResult schedule =
      ftsched::SchedulerRegistry::global().make("caft")->schedule(instance);
  const double horizon = schedule.schedule.horizon();

  // Workload A: the paper's model — k=2 dead from t=0: C(10, 2) = 45 masks,
  // the memo-friendly regime where the record memo replays each mask once
  // for the whole campaign. Workload B: crashes in the first half of the
  // committed horizon (prefix snapshots shorten every replay).
  struct Workload {
    const char* label;
    ftsched::SamplerSpec sampler;
  };
  const std::vector<Workload> workloads = {
      {"uniform-k", ftsched::SamplerSpec::uniform_k(2)},
      {"crash-window",
       ftsched::SamplerSpec::window(2, 0.0, horizon * 0.5)},
  };

  std::cout << "=== campaign throughput: " << replays
            << " replays of a 50-task CAFT schedule (m=10, eps=1) ===\n"
            << "hardware concurrency: "
            << std::thread::hardware_concurrency() << "\n\n";

  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw > 8) thread_counts.push_back(hw);

  bool deterministic = true;
  std::vector<BenchCell> cells;
  for (const Workload& workload : workloads) {
    Table table(std::string("replays/sec vs threads — ") + workload.label,
                {"threads", "engine", "seconds", "replays_per_sec",
                 "speedup_vs_naive", "memo_hit_rate"});
    ftsched::CampaignSpec spec;
    spec.sampler = workload.sampler;
    spec.replays = replays;
    // Every (engine, thread count) cell is compared against the first cell
    // run — one shared reference, so the engines cross-check each other too.
    std::unique_ptr<CampaignSummary> reference;
    for (const std::size_t threads : thread_counts) {
      double naive_rate = 0.0;
      for (const std::string& engine : engines) {
        ftsched::SessionOptions session_options;
        session_options.threads = threads;
        session_options.engine = engine == "naive"
                                     ? CampaignEngine::kNaive
                                     : CampaignEngine::kIncremental;
        const ftsched::Session session(session_options);
        const auto start = Clock::now();
        const ftsched::CampaignRun run =
            session.evaluate_schedule(instance, schedule, spec);
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        const double rate = static_cast<double>(replays) / seconds;
        if (session_options.engine == CampaignEngine::kNaive)
          naive_rate = rate;
        if (reference == nullptr) {
          reference = std::make_unique<CampaignSummary>(run.summary);
        } else if (!summaries_identical(run.summary, *reference)) {
          deterministic = false;
          std::cerr << "MISMATCH: " << workload.label << " engine " << engine
                    << " at " << threads
                    << " threads diverged from the reference summary\n";
        }
        // The speedup column only means something when the naive baseline
        // ran in this sweep; single-engine runs print "n/a" instead of a
        // fabricated 1.0.
        Cell speedup_cell = std::string("n/a");
        if (naive_rate > 0.0) speedup_cell = rate / naive_rate;
        table.add_row({static_cast<double>(threads), engine, seconds, rate,
                       speedup_cell, hit_rate(run.telemetry)});
        cells.push_back({workload.label, engine, threads, seconds, rate,
                         hit_rate(run.telemetry)});
      }
    }
    table.print(std::cout, 3);
    std::cout << "\n";
  }

  // --- θ-quantized crash-window workload: record memo on snapped scenarios.
  // k=1 over 32 buckets of the half-horizon window gives a keyspace of
  // m × 32 = 320, small enough for the memo to start paying within one
  // bench run. The quantized summary is an approximation of the exact one,
  // so it is held to its own determinism gate (identical across thread
  // counts) and reported as hit rate + drift, not compared bit-for-bit to
  // exact. Skipped for --engine naive: the whole block measures the
  // incremental engine.
  bool quantized_deterministic = true;
  double quantized_hit_rate = 0.0;
  if (engine_arg != "naive") {
    ftsched::CampaignSpec spec;
    spec.sampler = ftsched::SamplerSpec::window(1, 0.0, horizon * 0.5);
    spec.replays = replays;
    {
      ftsched::SessionOptions exact_options;
      exact_options.threads = 1;
      const ftsched::Session exact_session(exact_options);
      const CampaignSummary exact =
          exact_session.evaluate_schedule(instance, schedule, spec).summary;

      // 32 buckets over the half-horizon window = horizon / 64.
      ftsched::CampaignSpec quantized = spec;
      quantized.theta_buckets = 64;

      Table table("θ-quantized record memo — crash-window k=1, 32 buckets",
                  {"threads", "seconds", "replays_per_sec", "memo_hit_rate",
                   "success_drift", "latency_mean_drift"});
      std::unique_ptr<CampaignSummary> reference;
      for (const std::size_t threads : thread_counts) {
        ftsched::SessionOptions session_options;
        session_options.threads = threads;
        const ftsched::Session session(session_options);
        const auto start = Clock::now();
        const ftsched::CampaignRun run =
            session.evaluate_schedule(instance, schedule, quantized);
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (reference == nullptr)
          reference = std::make_unique<CampaignSummary>(run.summary);
        else if (!summaries_identical(run.summary, *reference)) {
          quantized_deterministic = false;
          std::cerr << "MISMATCH: quantized summary at " << threads
                    << " threads diverged\n";
        }
        quantized_hit_rate =
            std::max(quantized_hit_rate, hit_rate(run.telemetry));
        cells.push_back({"crash-window-quantized", "incremental", threads,
                         seconds,
                         static_cast<double>(replays) / seconds,
                         hit_rate(run.telemetry)});
        table.add_row(
            {static_cast<double>(threads), seconds,
             static_cast<double>(replays) / seconds, hit_rate(run.telemetry),
             static_cast<double>(run.summary.successes) -
                 static_cast<double>(exact.successes),
             run.summary.latency.mean() - exact.latency.mean()});
      }
      table.print(std::cout, 3);
      std::cout << "\n";
    }
  }

  // --- Subprocess streaming coordinator: uniform-k fanned out to worker
  // processes, tracking the coordinator's peak buffered blocks
  // (fold_window_peak) alongside throughput. Only runs when a worker
  // binary is named — the bench cannot assume campaign_cli's location —
  // and holds the subprocess summaries to the same byte-identity gate as
  // every other exact cell (folded into `deterministic`).
  std::string worker_cli = args.get("subprocess-cli");
  if (worker_cli.empty())
    if (const char* env_cli = std::getenv("CAFT_CAMPAIGN_CLI"))
      worker_cli = env_cli;
  if (!worker_cli.empty()) {
    ftsched::CampaignSpec spec;
    spec.sampler = ftsched::SamplerSpec::uniform_k(2);
    spec.replays = replays;

    ftsched::SessionOptions reference_options;
    reference_options.threads = 1;
    const CampaignSummary reference =
        ftsched::Session(reference_options)
            .evaluate_schedule(instance, schedule, spec)
            .summary;

    Table table("subprocess streaming coordinator — uniform-k",
                {"workers", "seconds", "replays_per_sec",
                 "fold_window_peak"});
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      ftsched::SessionOptions session_options;
      session_options.exec =
          ftsched::ExecutionPolicy::subprocess(worker_cli, workers);
      const ftsched::Session session(session_options);
      const auto start = Clock::now();
      const ftsched::CampaignRun run =
          session.evaluate_schedule(instance, schedule, spec);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (!summaries_identical(run.summary, reference)) {
        deterministic = false;
        std::cerr << "MISMATCH: subprocess summary at " << workers
                  << " worker(s) diverged from the in-process summary\n";
      }
      table.add_row({static_cast<double>(workers), seconds,
                     static_cast<double>(replays) / seconds,
                     static_cast<double>(run.telemetry.fold_window_peak)});
      cells.push_back({"uniform-k", "subprocess", workers, seconds,
                       static_cast<double>(replays) / seconds,
                       hit_rate(run.telemetry),
                       run.telemetry.fold_window_peak});
    }
    table.print(std::cout, 3);
    std::cout << "\n";
  }

  std::cout << "summaries bit-for-bit identical across engines and thread "
               "counts: "
            << (deterministic ? "yes" : "NO") << "\n";
  if (engine_arg != "naive")
    std::cout << "quantized summaries identical across thread counts: "
              << (quantized_deterministic ? "yes" : "NO") << "\n"
              << "quantized memo hit rate (crash-window k=1, 32 buckets): "
              << quantized_hit_rate << "\n";

  if (args.has("json-out")) {
    const std::string path = args.get("json-out");
    if (!write_bench_json(path, replays, cells, deterministic,
                          quantized_deterministic)) {
      std::cerr << "error: could not write " << path << "\n";
      return 1;
    }
    std::cout << "bench cells written to " << path << "\n";
  }
  return deterministic && quantized_deterministic ? 0 : 1;
}
