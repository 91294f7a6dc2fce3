/// perfbench — the program behind the repository benchmark (README.md
/// beside this directory documents workloads, metrics and the result line).
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --server-bin PATH --worker-bin PATH --work-dir DIR
///             --digests FILE [--trace-out FILE] [--perturb digest|output]
///             [--print-digest]
///
/// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
/// runs the workload's whole path untraced, traced (spans on, obs registry
/// armed) and untraced again, then feeds its inputs through each layer
/// alone, and reports the per-layer metrics; the spans, with the library's
/// own, go to the Chrome trace file --trace-out. Either way the outputs are
/// checked: a failed check makes the result `correct: false` and the exit
/// code 1. The last stdout line is the JSON result.
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/obs.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// The default workload seed: the one digests.txt pins.
constexpr std::uint64_t kDefaultSeed = 1;

/// Layers of the whole-path table reported as per-layer metrics; a layer
/// the workload does not touch reports a share of 0.
const char* const kLayers[] = {"dag", "platform", "algo", "sim",   "campaign",
                               "api", "exp",      "io",   "server"};

struct Args {
  std::map<std::string, std::string> values;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values.count(key) != 0;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0)
      throw std::runtime_error("unexpected argument '" + flag + "'");
    const bool boolean = flag == "--print-digest";
    if (!boolean && i + 1 >= argc)
      throw std::runtime_error(flag + " needs a value");
    args.values[flag.substr(2)] = boolean ? "1" : argv[++i];
  }
  return args;
}

/// The committed digest of (workload, seed), if digests.txt has one.
std::optional<std::string> committed_digest(const std::string& path,
                                            const std::string& workload,
                                            std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digests file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t line_seed = 0;
    std::string digest;
    if (fields >> name >> line_seed >> digest && name == workload &&
        line_seed == seed)
      return digest;
  }
  return std::nullopt;
}

/// Set-up runs at least four times and until 1.5 seconds have passed (at
/// most 25 times); each wall time is appended to `samples`.
void timed_setups(Workload& workload, std::vector<double>& samples) {
  double total = 0.0;
  for (std::size_t n = 0; n < 4 || (total < 1.5 && n < 25); ++n) {
    workload.teardown();
    const Clock::time_point begin = Clock::now();
    workload.setup();
    samples.push_back(seconds_since(begin));
    total += samples.back();
  }
}

/// One untraced whole path: setup, then one operation per backend.
double whole_path_seconds(Workload& workload) {
  const Clock::time_point begin = Clock::now();
  workload.setup();
  workload.measure(0.0, true);
  const double wall = seconds_since(begin);
  workload.teardown();
  return wall;
}

int run(const Args& args) {
  const std::string name = args.get("workload");
  Env env;
  env.seed = std::stoull(args.get("seed", std::to_string(kDefaultSeed)));
  env.threads = online_cpus();
  env.server_bin = args.get("server-bin");
  env.worker_bin = args.get("worker-bin");
  env.work_dir = args.get("work-dir", ".");
  const std::string perturb = args.get("perturb");
  if (!perturb.empty() && perturb != "digest" && perturb != "output")
    throw std::runtime_error("--perturb takes digest or output");
  env.perturb_output = perturb == "output";
  const double seconds = std::stod(args.get("seconds", "10"));
  const bool trace = args.get("trace", "0") == "1";

  const std::unique_ptr<Workload> workload = make_workload(name, env);
  if (!workload) {
    std::string known;
    for (const std::string& w : workload_names()) known += " " + w;
    throw std::runtime_error("unknown workload '" + name + "'; known:" +
                             known);
  }

  Checks checks;
  std::vector<Metric> metrics;
  std::string digest;
  std::cout << "perfbench " << name << " seed " << env.seed << " threads "
            << env.threads << (trace ? " (traced run)" : "") << "\n";

  if (!trace) {
    // Half the set-ups run before the timed operations and half after, so
    // setup_s spans the run as the operations do and drift of the host
    // during the run moves both alike. setup_s is their median.
    std::vector<double> setups;
    timed_setups(*workload, setups);
    workload->measure(seconds, false);
    timed_setups(*workload, setups);
    digest = workload->verify(checks);
    metrics.push_back({"setup_s", median(setups), "s"});
    for (const Metric& metric : workload->end_to_end())
      metrics.push_back(metric);
    workload->teardown();
    print_metric_table(std::cout, "end-to-end (tracing off)", metrics);
    workload->print_details(std::cout);
  } else {
    obs::Registry& registry = obs::Registry::global();
    const double untraced_before = whole_path_seconds(*workload);

    registry.set_enabled(true);
    registry.set_tracing(true);
    recorder().set_enabled(true);
    const Clock::time_point begin = Clock::now();
    ScopedSpan root("workload." + name);
    workload->setup();
    workload->measure(0.0, true);
    const int root_id = root.id();
    root.finish();
    const double traced = seconds_since(begin);
    const ProbeInputs inputs = workload->probe_inputs();
    digest = workload->verify(checks);
    workload->teardown();

    ProbeEnv probe_env;
    probe_env.threads = env.threads;
    probe_env.server_bin = env.server_bin;
    probe_env.worker_bin = env.worker_bin;
    probe_env.work_dir = env.work_dir;
    std::cerr << "perfbench: whole path done, probing layers\n";
    ScopedSpan probe_root("probe." + name);
    const int probe_id = probe_root.id();
    metrics = run_probes(inputs, probe_env, checks);
    probe_root.finish();
    recorder().set_enabled(false);

    const std::vector<SpanRecord> spans = recorder().spans();
    const LayerTable whole = layer_table(spans, root_id);
    const LayerTable probes = layer_table(spans, probe_id);
    registry.set_tracing(false);
    registry.set_enabled(false);
    const double untraced_after = whole_path_seconds(*workload);
    const double untraced = 0.5 * (untraced_before + untraced_after);

    for (const char* layer : kLayers)
      metrics.push_back({std::string("trace.") + layer + ".self_share",
                         whole.share(layer), "ratio"});
    metrics.push_back({"trace.unattributed_share",
                       whole.wall_s > 0 ? whole.unattributed_s / whole.wall_s
                                        : 0.0,
                       "ratio"});
    metrics.push_back(
        {"obs.tracing_overhead_share", traced / untraced - 1.0, "ratio"});

    std::cout << "== whole path, traced (setup + one operation per backend)\n";
    print_layer_table(std::cout, whole);
    std::cout << "== layer by layer (each entry point alone, same inputs)\n";
    print_layer_table(std::cout, probes);
    std::cout << "  tracing overhead: traced whole path " << traced
              << " s vs untraced " << untraced << " s\n";
    print_metric_table(std::cout, "per-layer", metrics);

    registry.set_enabled(true);
    registry.set_tracing(true);
    recorder().export_to_obs();
    const std::string trace_path = args.get(
        "trace-out", env.work_dir + "/trace_" + name + ".json");
    std::ofstream trace_out(trace_path);
    registry.write_trace_json(trace_out);
    registry.set_enabled(false);
    checks.expect(trace_out.good(), "trace file written");
    std::cout << "  trace: " << trace_path << " ("
              << registry.trace_event_count() << " events)\n";
  }

  // Correctness gates shared by both modes.
  std::optional<std::string> expected =
      committed_digest(args.get("digests"), name, env.seed);
  if (args.has("print-digest"))
    std::cout << "digest " << name << " " << env.seed << " " << digest
              << "\n";
  if (perturb == "digest" && expected) (*expected)[0] ^= 1;
  if (expected)
    checks.expect(*expected == digest,
                  "outputs match the committed digest (" + *expected + ")");
  else if (env.seed == kDefaultSeed && !args.has("print-digest"))
    checks.expect(false, "digests file pins the default seed");
  for (const Metric& metric : metrics)
    checks.expect(std::isfinite(metric.value),
                  metric.name + " is a finite number");

  std::cout << "checks: " << checks.attempted() << " attempted, "
            << checks.failed() << " failed (failed_share "
            << static_cast<double>(checks.failed()) /
                   static_cast<double>(std::max<std::size_t>(
                       checks.attempted(), 1))
            << "); output digest " << digest << "\n";
  for (const std::string& failure : checks.failures())
    std::cout << "FAILED: " << failure << "\n";
  write_result_line(std::cout, checks, metrics);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
