/// \file campaign_spec_cli.hpp
/// The campaign-flag surface shared by the campaign CLIs — campaign_cli,
/// campaign_client and campaign_server all accept the same spec flags
/// (--algos/--sampler/--replays/--seed/--theta-buckets/--target-ci-width
/// and the sampler knobs) and the same observability
/// flags (--trace-out/--metrics-out), so the helpers that turn flags into
/// an ftsched::CampaignSpec and arm the obs registry live here, once.
/// Header-only on purpose: tools/*.cpp are each built as a binary by
/// caft_add_binaries, so a shared .cpp has nowhere to live.
///
/// Byte-stability note: campaign_client's table/CSV/JSON output must be
/// byte-identical to campaign_cli's for the same campaign (the CI smoke
/// legs diff them), which is why the table/CSV/JSON writer is shared too.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "campaign/stats.hpp"
#include "common/build_info.hpp"
#include "common/check.hpp"
#include "common/cli_args.hpp"
#include "obs/obs.hpp"

namespace ftsched {
namespace tools {

/// The flags read by the helpers below, declared once here: a tool hands
/// CliArgs its own flags plus the sets of the helpers it calls, and every
/// other flag is rejected.
/// build_campaign_spec (with build_sampler_spec):
inline std::vector<std::string> spec_flags() {
  return {"algos",    "sampler",    "k",          "horizon",
          "rate",     "shape",      "scale",      "theta-lo",
          "theta-hi", "group-size", "group-prob", "replays",
          "seed",     "theta-buckets", "target-ci-width"};
}
/// arm_observability and write_observability_outputs:
inline std::vector<std::string> observability_flags() {
  return {"trace-out", "metrics-out"};
}
/// write_table_outputs:
inline std::vector<std::string> table_flags() { return {"csv", "json"}; }

/// `own` followed by every set in `shared`.
inline std::vector<std::string> declare_flags(
    std::vector<std::string> own,
    std::initializer_list<std::vector<std::string>> shared) {
  for (const std::vector<std::string>& set : shared)
    own.insert(own.end(), set.begin(), set.end());
  return own;
}

inline SamplerSpec build_sampler_spec(const caft::CliArgs& args,
                                      std::size_t eps) {
  const std::string kind = args.get_choice(
      "sampler", "uniform", {"uniform", "exp", "weibull", "window", "groups"});
  const std::size_t k = args.get_size("k", eps);
  // Lifetimes beyond --horizon are censored to "never fails"; without it
  // every processor eventually crashes, so the within-eps statistics of
  // lifetime campaigns are empty (failed_count counts any finite lifetime).
  const double horizon =
      args.get_double("horizon", std::numeric_limits<double>::infinity());
  if (kind == "uniform") return SamplerSpec::uniform_k(k);
  if (kind == "exp")
    return SamplerSpec::exponential(args.get_double("rate", 0.001), horizon);
  if (kind == "weibull")
    return SamplerSpec::weibull(args.get_double("shape", 1.5),
                                args.get_double("scale", 1000.0), horizon);
  if (kind == "window")
    return SamplerSpec::window(k, args.get_double("theta-lo", 0.0),
                               args.get_double("theta-hi", 1000.0));
  // get_choice above guarantees kind == "groups" here.
  return SamplerSpec::groups(
      args.get_size("group-size", 2), args.get_double("group-prob", 0.1),
      args.get_double("theta-lo", 0.0), args.get_double("theta-hi", 0.0));
}

/// Splits --algos on commas and validates every name against the registry:
/// an unknown entry aborts with "unknown algo 'x'; known: ...", and a
/// repeated entry aborts too (it would double the run and the report row).
inline std::vector<std::string> parse_algos(const std::string& list) {
  const SchedulerRegistry& registry = SchedulerRegistry::global();
  std::vector<std::string> names;
  std::string token;
  for (const char c : list + ",") {
    if (c != ',') {
      token += c;
      continue;
    }
    if (token.empty()) continue;
    (void)registry.make(token);  // throws the canonical unknown-algo error
    CAFT_CHECK_MSG(
        std::find(names.begin(), names.end(), token) == names.end(),
        "--algos lists '" + token + "' twice");
    names.push_back(token);
    token.clear();
  }
  CAFT_CHECK_MSG(!names.empty(), "--algos names no algorithms; known: " +
                                     registry.known_list());
  return names;
}

/// The full spec from the shared flags. `eps` seeds the uniform/window
/// sampler's default k (the caller resolves it — campaign_cli from the
/// instance, campaign_client from --eps).
inline CampaignSpec build_campaign_spec(const caft::CliArgs& args,
                                        std::size_t eps) {
  CampaignSpec spec;
  spec.algorithms = parse_algos(args.get("algos", "caft,ftsa,ftbar"));
  spec.sampler = build_sampler_spec(args, eps);
  spec.replays = args.get_size("replays", 1000);
  CAFT_CHECK_MSG(spec.replays > 0, "--replays must be positive");
  spec.seed = args.get_size("seed", 20080201);
  // --theta-buckets N splits each schedule's horizon into N θ buckets and
  // snaps every crash time to its bucket midpoint; 0 (the default) keeps
  // every replay bit-exact.
  spec.theta_buckets = args.get_size("theta-buckets", 0);
  // --target-ci-width W: stop once the folded prefix's Wilson 95% CI is at
  // most W wide. In-process the cut lands at a wave boundary — a
  // deterministic function of (seed, block), byte-identical across runs
  // (what the campaign server's identity guarantee leans on). Subprocess
  // stopping points additionally depend on worker timing, so those runs
  // are deterministic per stopping point but not byte-identical.
  spec.target_ci_width = args.get_double("target-ci-width", 0.0);
  return spec;
}

/// Validates the observability flags up front (so a long campaign cannot
/// fail at the final write) and arms the global registry. Purely additive:
/// with neither flag the registry stays disabled and every instrumentation
/// point in the library is a relaxed load + branch.
inline void arm_observability(const caft::CliArgs& args) {
  if (args.has("trace-out"))
    caft::CliArgs::check_writable_path("trace-out", args.get("trace-out"));
  if (args.has("metrics-out"))
    caft::CliArgs::check_writable_path("metrics-out",
                                       args.get("metrics-out"));
  obs::Registry& registry = obs::Registry::global();
  if (args.has("trace-out") || args.has("metrics-out"))
    registry.set_enabled(true);
  if (args.has("trace-out")) registry.set_tracing(true);
}

/// Writes --trace-out / --metrics-out. Confirmations go to *stderr*: stdout
/// carries the deterministic report (or, in worker mode, the wire partial)
/// and must stay byte-identical with observability on.
inline void write_observability_outputs(const caft::CliArgs& args) {
  obs::Registry& registry = obs::Registry::global();
  if (args.has("trace-out")) {
    const std::string path = args.get("trace-out");
    std::ofstream out(path, std::ios::trunc);
    registry.write_trace_json(out);
    CAFT_CHECK_MSG(out.good(), "--trace-out: failed writing '" + path + "'");
    std::fprintf(stderr, "trace written to %s (%zu events)\n", path.c_str(),
                 registry.trace_event_count());
  }
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out");
    std::ofstream out(path, std::ios::trunc);
    registry.write_metrics_json(out, caft::build_info());
    CAFT_CHECK_MSG(out.good(),
                   "--metrics-out: failed writing '" + path + "'");
    std::fprintf(stderr, "metrics written to %s\n", path.c_str());
  }
}

/// Prints the campaign table and writes --csv/--json artifacts, exactly as
/// campaign_cli always has (shared so campaign_client's output is
/// byte-identical). Returns 0, or 1 when an artifact could not be written.
inline int write_table_outputs(const caft::CliArgs& args,
                               const caft::Table& table) {
  table.print(std::cout, 4);
  if (args.has("csv")) {
    const std::string path = args.get("csv") + "_campaign.csv";
    if (!table.save_csv(path)) {
      std::fprintf(stderr, "error: could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("CSV written to %s\n", path.c_str());
  }
  if (args.has("json")) {
    const std::string path = args.get("json") + "_campaign.json";
    if (!table.save_json(path)) {
      std::fprintf(stderr, "error: could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("JSON written to %s\n", path.c_str());
  }
  return 0;
}

}  // namespace tools
}  // namespace ftsched
