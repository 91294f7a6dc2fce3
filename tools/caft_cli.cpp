/// caft_cli — command-line front end to the library, built entirely on the
/// ftsched:: facade (api/api.hpp): algorithms are resolved by name through
/// the SchedulerRegistry, so `--algo` accepts exactly the registered names
/// and new algorithms appear here with zero CLI changes.
///
/// Subcommands:
///   generate    build an instance (graph + platform + costs) and save it
///   schedule    run a registered scheduler on an instance; save/export
///   replay      re-execute a scheduled instance under a crash set
///   resilience  exhaustive ε-subset survival check of a scheduled instance
///   figure      reproduce one of the paper's figures (1-6)
///   algos       list the registered algorithms and their capabilities
///
/// Examples:
///   caft_cli generate --family random --procs 10 --granularity 0.5
///       --seed 42 --out instance.txt                        (one line)
///   caft_cli schedule --in instance.txt --algo caft --eps 2
///       --out scheduled.txt --dot s.dot --trace t.json --gantt
///   caft_cli schedule --in instance.txt --algo caft --support direct
///   caft_cli replay --in scheduled.txt --crash 0,3 --gantt
///   caft_cli resilience --in scheduled.txt
///   caft_cli figure 1 --reps 10
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "common/build_info.hpp"
#include "common/cli_args.hpp"
#include "dag/generators.hpp"
#include "exp/config.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "io/dot_export.hpp"
#include "io/trace_export.hpp"
#include "metrics/gantt.hpp"
#include "metrics/metrics.hpp"
#include "platform/cost_synthesis.hpp"
#include "sim/resilience.hpp"

namespace {

using namespace caft;

using Args = CliArgs;

int usage() {
  std::fprintf(stderr,
               "usage: caft_cli <generate|schedule|replay|resilience|figure|"
               "algos> [options]\n(see the header of tools/caft_cli.cpp for "
               "examples)\n");
  return 2;
}

/// The flags each subcommand reads; CliArgs rejects the rest.
std::vector<std::string> command_flags(const std::string& command) {
  if (command == "generate")
    return {"family", "size", "granularity", "out", "procs", "seed",
            "topology"};
  if (command == "schedule")
    return {"in",      "algo", "eps",   "model", "support",
            "batch",   "out",  "dot",   "trace", "gantt"};
  if (command == "replay") return {"in", "crash", "gantt", "trace"};
  if (command == "resilience") return {"in", "failures"};
  if (command == "figure") return {"reps", "csv"};
  return {};  // algos takes no flags
}

TaskGraph build_graph(const Args& args, Rng& rng) {
  const std::string family = args.get("family", "random");
  const std::size_t size = args.get_size("size", 0);
  if (family == "random") return random_dag(RandomDagParams{}, rng);
  if (family == "chain") return chain(size ? size : 20, 100.0);
  if (family == "fork") return fork(size ? size : 12, 100.0);
  if (family == "join") return join(size ? size : 12, 100.0);
  if (family == "forkjoin") return fork_join(size ? size : 10, 100.0);
  if (family == "outforest") return random_out_forest(size ? size : 50, 3, rng);
  if (family == "gauss") return gaussian_elimination(size ? size : 8, 100.0);
  if (family == "cholesky") return cholesky(size ? size : 6, 100.0);
  if (family == "fft") return fft(size ? size : 4, 100.0);
  if (family == "stencil") return stencil(size ? size : 5, size ? size : 5, 100.0);
  throw CheckError("unknown graph family '" + family + "'");
}

int cmd_generate(const Args& args) {
  Rng rng(args.get_size("seed", 42));
  TaskGraph graph = build_graph(args, rng);
  const std::size_t m = args.get_size("procs", 10);
  const std::string topo =
      args.get_choice("topology", "clique", {"clique", "ring", "star"});
  Platform platform(m);
  if (topo == "ring")
    platform = Platform(Topology::ring(m));
  else if (topo == "star")
    platform = Platform(Topology::star(m));

  CostSynthesisParams params;
  params.granularity = args.get_double("granularity", 1.0);
  const ftsched::Instance instance(std::move(graph), std::move(platform),
                                   params, rng);

  const std::string out = args.get("out", "instance.txt");
  instance.save(out);
  std::printf("wrote %s: %zu tasks, %zu edges, m=%zu, g=%.2f\n", out.c_str(),
              instance.graph().task_count(), instance.graph().edge_count(), m,
              instance.costs().granularity(instance.graph()));
  return 0;
}

int cmd_schedule(const Args& args) {
  ftsched::Instance instance = ftsched::Instance::load(
      args.get("in", "instance.txt"));
  const std::string algo = args.get("algo", "caft");
  instance.set_eps(args.get_size("eps", 1));
  instance.options().model = args.get_choice("model", "oneport",
                                             {"oneport", "macro"}) == "macro"
                                 ? CommModelKind::kMacroDataflow
                                 : CommModelKind::kOnePort;

  ftsched::ScheduleRequest request;
  request.batch_size = args.get_size("batch", 10);
  request.support_mode = args.get_choice("support", "transitive",
                                         {"transitive", "direct"}) == "direct"
                             ? CaftSupportMode::kDirect
                             : CaftSupportMode::kTransitive;

  // The registry is the single dispatch point: unknown names fail with
  // "unknown algo 'x'; known: <names>".
  const ftsched::ScheduleResult result =
      ftsched::SchedulerRegistry::global().make(algo)->schedule(instance,
                                                                request);

  std::printf("%s: latency %.2f (normalized %.2f), upper bound %.2f, "
              "%zu messages, valid=%s\n",
              algo.c_str(), result.makespan,
              normalized_latency(result.makespan, instance.graph(),
                                 instance.costs()),
              result.upper_bound, result.messages,
              result.validation.ok() ? "yes" : "NO");
  if (!result.validation.ok())
    std::fprintf(stderr, "%s\n", result.validation.summary().c_str());

  if (args.has("out")) instance.save(args.get("out"), &result.schedule);
  if (args.has("dot")) {
    std::ofstream dot(args.get("dot"));
    dot << to_dot(result.schedule);
  }
  if (args.has("trace")) {
    std::ofstream trace(args.get("trace"));
    trace << to_chrome_trace(result.schedule);
  }
  if (args.has("gantt")) std::cout << render_gantt(result.schedule);
  return result.ok() ? 0 : 1;
}

std::vector<ProcId> parse_crash_list(const std::string& spec) {
  std::vector<ProcId> procs;
  std::string token;
  for (const char c : spec + ",") {
    if (c == ',') {
      if (!token.empty())
        procs.push_back(ProcId(static_cast<ProcId::value_type>(
            std::stoul(token))));
      token.clear();
    } else {
      token += c;
    }
  }
  return procs;
}

int cmd_replay(const Args& args) {
  const ftsched::Instance instance = ftsched::Instance::load(
      args.get("in", "scheduled.txt"));
  const Schedule* schedule = instance.loaded_schedule();
  CAFT_CHECK_MSG(schedule != nullptr, "instance has no schedule; run "
                                      "'caft_cli schedule --out ...' first");
  const auto failed = parse_crash_list(args.get("crash", ""));
  const CrashScenario scenario =
      CrashScenario::at_zero(instance.proc_count(), failed);
  const CrashResult result =
      simulate_crashes(*schedule, instance.costs(), scenario);
  std::printf("crash set of %zu processor(s): %s, latency %.2f "
              "(0-crash estimate %.2f), %zu messages delivered\n",
              failed.size(), result.success ? "survived" : "FAILED",
              result.latency, schedule->zero_crash_latency(),
              result.delivered_messages);
  if (args.has("gantt"))
    std::cout << render_crash_gantt(*schedule, result, scenario);
  if (args.has("trace")) {
    std::ofstream trace(args.get("trace"));
    trace << to_chrome_trace(*schedule, result, scenario);
  }
  return result.success ? 0 : 1;
}

int cmd_resilience(const Args& args) {
  const ftsched::Instance instance = ftsched::Instance::load(
      args.get("in", "scheduled.txt"));
  const Schedule* schedule = instance.loaded_schedule();
  CAFT_CHECK_MSG(schedule != nullptr, "instance has no schedule");
  const std::size_t failures = args.get_size("failures", schedule->eps());
  const ResilienceReport report =
      check_resilience_exhaustive(*schedule, instance.costs(), failures);
  std::printf("%zu crash subsets of size %zu: %zu failed -> %s\n",
              report.scenarios_tested, failures, report.failures,
              report.resistant ? "RESISTANT" : "NOT RESISTANT");
  if (!report.witness.empty()) {
    std::printf("witness:");
    for (const ProcId p : report.witness) std::printf(" P%u", p.value());
    std::printf("\n");
  }
  if (report.resistant)
    std::printf("re-executed latency: best %.2f, worst %.2f\n",
                report.best_latency, report.worst_latency);
  return report.resistant ? 0 : 1;
}

int cmd_figure(const Args& args) {
  CAFT_CHECK_MSG(!args.positional().empty(), "figure number required (1-6)");
  const int figure = std::stoi(args.positional().front());
  ExperimentConfig config;
  switch (figure) {
    case 1: config = figure1(); break;
    case 2: config = figure2(); break;
    case 3: config = figure3(); break;
    case 4: config = figure4(); break;
    case 5: config = figure5(); break;
    case 6: config = figure6(); break;
    default: throw CheckError("figure number must be 1-6");
  }
  config.graphs_per_point = args.get_size("reps", 10);
  const auto points = run_experiment(config);
  report_figure(std::cout, config, points,
                args.has("csv") ? config.name : "");
  return 0;
}

int cmd_algos() {
  ftsched::SchedulerRegistry::global().for_each(
      [](const ftsched::Scheduler& scheduler) {
        const ftsched::SchedulerCapabilities caps = scheduler.capabilities();
        std::printf("%-12s eps=%-3s contention-aware=%-3s duplicates=%s\n",
                    scheduler.name().c_str(),
                    caps.supports_eps ? "yes" : "no",
                    caps.contention_aware ? "yes" : "no",
                    caps.emits_duplicates ? "yes" : "no");
      });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::printf("%s\n", caft::version_line().c_str());
    return 0;
  }
  const Args args =
      Args::parse_or_exit(argc, argv, command_flags(command), 2);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "schedule") return cmd_schedule(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "resilience") return cmd_resilience(args);
    if (command == "figure") return cmd_figure(args);
    if (command == "algos") return cmd_algos();
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
