#include "probes.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "api/campaign_wire.hpp"
#include "campaign/campaign.hpp"
#include "server_mix.hpp"
#include "sim/crash_sim.hpp"
#include "sim/replay_engine.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Median wall seconds of `work`, repeated up to three times while the
/// total stays under `budget_s` (always at least once).
template <typename Work>
double median_seconds(Work&& work, double budget_s = 1.0) {
  std::vector<double> samples;
  double total = 0.0;
  while (samples.empty() || (samples.size() < 3 && total < budget_s)) {
    const Clock::time_point begin = Clock::now();
    work();
    samples.push_back(seconds_since(begin));
    total += samples.back();
  }
  return median(samples);
}

std::vector<double> crash_times(const caft::CrashScenario& scenario) {
  std::vector<double> times(scenario.proc_count());
  for (std::size_t p = 0; p < times.size(); ++p)
    times[p] = scenario.crash_time(caft::ProcId(p));
  return times;
}

}  // namespace

std::vector<Metric> run_probes(const ProbeInputs& inputs, const ProbeEnv& env,
                               Checks& checks) {
  std::vector<Metric> metrics;
  const auto add = [&metrics](std::string name, double value,
                              std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  };
  // Progress on stderr: the probes of a large workload take a while.
  const Clock::time_point start = Clock::now();
  const auto progress = [&start](const char* layer) {
    std::fprintf(stderr, "perfbench: probing %s (%.1f s)\n", layer,
                 seconds_since(start));
  };

  // --- dag, platform: the probe instance, generated the workload's way.
  caft::TaskGraph graph;
  const double dag_s = median_seconds(
      [&] { graph = instance_graph(inputs.dag, inputs.instance_seed); });
  add("dag.random_dag_ms", dag_s * 1e3, "ms");

  auto platform = std::make_unique<caft::Platform>(inputs.procs);
  std::unique_ptr<caft::CostModel> costs;
  const double costs_s = median_seconds([&] {
    costs = std::make_unique<caft::CostModel>(instance_costs(
        graph, *platform, inputs.costs, inputs.instance_seed));
  });
  add("platform.synthesize_costs_ms", costs_s * 1e3, "ms");
  const ftsched::Instance instance(std::move(graph), std::move(platform),
                                   std::move(costs),
                                   ftsched::RunOptions{inputs.eps});

  progress("algo");
  // --- algo: every scheduler of the paper on the probe instance.
  ftsched::ScheduleRequest request = inputs.spec.request;
  request.eps = inputs.eps;
  const ftsched::SchedulerRegistry& registry =
      ftsched::SchedulerRegistry::global();
  std::map<std::string, std::unique_ptr<ftsched::ScheduleResult>> schedules;
  for (const std::string name : {"caft", "ftsa", "ftbar", "heft"}) {
    const std::shared_ptr<const ftsched::Scheduler> scheduler =
        registry.make(name);
    const double schedule_s = median_seconds([&] {
      ScopedSpan span("algo." + name + ".schedule");
      schedules[name] = std::make_unique<ftsched::ScheduleResult>(
          scheduler->schedule(instance, request));
    });
    checks.expect(schedules[name]->ok(), "probe: " + name + " schedule valid");
    add("algo." + name + ".schedule_ms", schedule_s * 1e3, "ms");
    if (name != "heft")
      add("algo." + name + ".messages",
          static_cast<double>(schedules[name]->messages), "count");
  }

  ftsched::CampaignSpec spec = inputs.spec;
  spec.request.eps = inputs.eps;
  const std::string& algorithm = spec.algorithms.front();
  const ftsched::ScheduleResult& schedule = *schedules.at(algorithm);

  progress("sim");
  // --- sim: engine template, then single replays.
  std::unique_ptr<caft::ReplayEngine> engine;
  const double build_s = median_seconds([&] {
    ScopedSpan span("sim.engine_build");
    engine = std::make_unique<caft::ReplayEngine>(schedule.schedule,
                                                  instance.costs());
  });
  add("sim.engine_build_ms", build_s * 1e3, "ms");
  add("sim.snapshots", static_cast<double>(engine->snapshot_count()), "count");
  add("sim.events", static_cast<double>(engine->event_count()), "count");

  progress("campaign");
  // --- campaign: the scenario stream a campaign of `spec` draws (one split
  // stream per replay), and how much of each wave is distinct.
  const std::unique_ptr<caft::ScenarioSampler> sampler =
      spec.sampler.build(instance.proc_count());
  std::vector<caft::CrashScenario> scenarios;
  scenarios.reserve(spec.replays);
  double sample_ns = 0.0;
  {
    ScopedSpan span("campaign.sample");
    const Clock::time_point begin = Clock::now();
    caft::Rng master(spec.seed);
    for (std::size_t i = 0; i < spec.replays; ++i) {
      caft::Rng stream = master.split();
      scenarios.push_back(sampler->sample(stream));
    }
    sample_ns =
        seconds_since(begin) * 1e9 / static_cast<double>(spec.replays);
  }
  add("campaign.sample_ns", sample_ns, "ns");
  const std::size_t wave = ftsched::SessionOptions{}.block;
  std::size_t distinct_in_waves = 0;
  std::set<std::vector<double>> distinct;
  std::vector<const caft::CrashScenario*> representatives;
  for (std::size_t first = 0; first < scenarios.size(); first += wave) {
    std::set<std::vector<double>> in_wave;
    for (std::size_t i = first; i < std::min(first + wave, scenarios.size());
         ++i) {
      std::vector<double> key = crash_times(scenarios[i]);
      in_wave.insert(key);
      if (distinct.insert(std::move(key)).second)
        representatives.push_back(&scenarios[i]);
    }
    distinct_in_waves += in_wave.size();
  }
  add("campaign.distinct_share",
      static_cast<double>(distinct_in_waves) /
          static_cast<double>(scenarios.size()),
      "ratio");

  // Replay cost per distinct scenario, one thread, one Scratch.
  const std::size_t replay_count =
      std::min<std::size_t>(representatives.size(), 256);
  std::vector<double> replay_passes;
  for (int pass = 0; pass < 3; ++pass) {
    ScopedSpan span("sim.replay");
    caft::ReplayEngine::Scratch scratch;  // fresh: no memo carry-over
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < replay_count; ++i)
      (void)engine->replay(*representatives[i], scratch);
    replay_passes.push_back(seconds_since(begin) * 1e6 /
                            static_cast<double>(replay_count));
  }
  const double replay_us = median(replay_passes);
  add("sim.replay_us", replay_us, "us");
  {
    const std::size_t naive_count = std::min<std::size_t>(replay_count, 8);
    ScopedSpan span("sim.naive_replay");
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < naive_count; ++i)
      (void)caft::simulate_crashes(schedule.schedule, instance.costs(),
                                   *representatives[i]);
    add("sim.naive_replay_us",
        seconds_since(begin) * 1e6 / static_cast<double>(naive_count), "us");
  }

  // Records of the campaign's canonical stream, then the fold over them.
  caft::CampaignOptions block_options;
  block_options.seed = spec.seed;
  block_options.threads = 1;
  block_options.quantiles = spec.quantiles;
  block_options.prebuilt_engine = engine.get();
  std::vector<caft::ReplayRecord> records;
  {
    ScopedSpan span("campaign.run_block");
    records = caft::run_campaign_block(schedule.schedule, instance.costs(),
                                       *sampler, block_options, 0,
                                       spec.replays);
  }
  checks.expect(records.size() == spec.replays,
                "probe: run_campaign_block returned every record");
  double fold_ns = 0.0;
  {
    ScopedSpan span("campaign.fold");
    caft::CampaignAccumulator accumulator(schedule.eps, spec.quantiles);
    const Clock::time_point begin = Clock::now();
    for (const caft::ReplayRecord& record : records)
      caft::fold_replay_record(accumulator, record);
    fold_ns = seconds_since(begin) * 1e9 / static_cast<double>(records.size());
    checks.expect(accumulator.summary().replays == records.size(),
                  "probe: fold counted every record");
  }
  add("campaign.fold_ns", fold_ns, "ns");

  // The whole campaign at one thread and at every thread: the executor's
  // share is what sampling, distinct replays and the fold leave unexplained.
  ftsched::CampaignSpec one = spec;
  one.algorithms = {algorithm};
  // Median wall of three campaigns at `threads`.
  const auto evaluate = [&](std::size_t threads,
                            caft::CampaignTelemetry& telemetry) {
    ftsched::SessionOptions options;
    options.threads = threads;
    const ftsched::Session session(options);
    std::vector<double> walls;
    for (int pass = 0; pass < 3; ++pass) {
      ScopedSpan span(threads == 1 ? "campaign.evaluate_1t"
                                   : "campaign.evaluate");
      const Clock::time_point begin = Clock::now();
      const ftsched::CampaignRun run =
          session.evaluate_schedule(instance, schedule, one, engine.get());
      walls.push_back(seconds_since(begin));
      telemetry = run.telemetry;
      checks.expect(run.telemetry.replays == one.replays,
                    "probe: campaign executed its whole budget");
    }
    return median(walls);
  };
  caft::CampaignTelemetry serial;
  caft::CampaignTelemetry parallel;
  const double wall_1t = evaluate(1, serial);
  const double wall_nt = evaluate(env.threads, parallel);
  // Each wave replays its distinct scenarios once; a memo hit skips one.
  const double replayed = static_cast<double>(distinct_in_waves) -
                          static_cast<double>(serial.memo_hits);
  const double explained =
      static_cast<double>(spec.replays) * (sample_ns + fold_ns) * 1e-9 +
      replayed * replay_us * 1e-6;
  add("campaign.executor_share", 1.0 - explained / wall_1t, "ratio");
  add("campaign.thread_speedup", wall_1t / wall_nt, "ratio");
  add("campaign.memo_lookups", static_cast<double>(serial.memo_lookups),
      "count");
  add("campaign.memo_hits", static_cast<double>(serial.memo_hits), "count");

  progress("api");
  // --- api: the subprocess wire, then the subprocess backend end to end.
  {
    ftsched::CampaignPartialResult partial;
    partial.algorithm = algorithm;
    partial.count = records.size();
    for (const caft::ReplayRecord& record : records)
      partial.successes += record.success ? 1 : 0;
    partial.records = records;
    std::string bytes;
    const double encode_s = median_seconds([&] {
      ScopedSpan span("api.wire_encode");
      std::ostringstream out;
      ftsched::write_campaign_partial(out, partial);
      bytes = out.str();
    });
    const double decode_s = median_seconds([&] {
      ScopedSpan span("api.wire_decode");
      std::istringstream in(bytes);
      const ftsched::CampaignPartialResult parsed =
          ftsched::read_campaign_partial(in);
      checks.expect(parsed.records.size() == records.size(),
                    "probe: wire round trip kept every record");
    });
    const auto n = static_cast<double>(records.size());
    add("api.wire.encode_ns_per_record", encode_s * 1e9 / n, "ns");
    add("api.wire.decode_ns_per_record", decode_s * 1e9 / n, "ns");
    add("api.wire.bytes_per_record", static_cast<double>(bytes.size()) / n,
        "B");
  }
  {
    ftsched::SessionOptions options;
    options.exec = ftsched::ExecutionPolicy::subprocess(env.worker_bin,
                                                        env.threads);
    options.exec.worker_threads = 1;
    const ftsched::Session session(options);
    ScopedSpan span("api.subprocess_evaluate");
    const Clock::time_point begin = Clock::now();
    const ftsched::CampaignRun run =
        session.evaluate_schedule(instance, schedule, one);
    const double wall = seconds_since(begin);
    checks.expect(run.telemetry.replays == one.replays,
                  "probe: subprocess campaign executed its whole budget");
    add("api.subprocess.replays_per_s",
        static_cast<double>(run.telemetry.replays) / wall, "1/s");
    add("api.subprocess.fold_window_peak",
        static_cast<double>(run.telemetry.fold_window_peak), "count");
    add("api.subprocess.worker_retries",
        static_cast<double>(run.telemetry.worker_retries), "count");
  }

  progress("io");
  // --- io: the archival instance format, through streams.
  std::string instance_bytes;
  const double save_s = median_seconds([&] {
    ScopedSpan span("io.instance_save");
    std::ostringstream out;
    instance.save(out);
    instance_bytes = out.str();
  });
  const double load_s = median_seconds([&] {
    ScopedSpan span("io.instance_load");
    std::istringstream in(instance_bytes);
    const ftsched::Instance loaded = ftsched::Instance::load(in);
    checks.expect(loaded.graph().task_count() == instance.graph().task_count(),
                  "probe: instance round trip kept every task");
  });
  add("io.instance_save_ms", save_s * 1e3, "ms");
  add("io.instance_load_ms", load_s * 1e3, "ms");
  add("io.instance_bytes", static_cast<double>(instance_bytes.size()), "B");

  progress("server");
  // --- server: the request sequence against a fresh campaign_server.
  std::vector<ftsched::server::CampaignRequest> requests =
      inputs.server_requests;
  std::vector<std::size_t> keys = inputs.server_keys;
  if (requests.empty()) {
    ftsched::server::CampaignRequest single;
    single.spec = spec;
    single.instance_bytes = instance_bytes;
    requests.assign(8, single);
    keys.assign(8, 0);
  }
  const std::string metrics_path = env.work_dir + "/probe_server_metrics.json";
  std::vector<double> write_us;
  std::vector<double> read_us;
  std::vector<double> first_ms;
  std::vector<double> repeat_ms;
  {
    ScopedSpan span("server.probe");
    ServerProcess server(env.server_bin, env.work_dir + "/probe_server.log",
                         {"--metrics-out", metrics_path});
    std::set<std::size_t> seen;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Clock::time_point begin = Clock::now();
      std::ostringstream request_text;
      {
        ScopedSpan write_span("server.write_request");
        ftsched::server::write_campaign_request(request_text, requests[i]);
      }
      write_us.push_back(seconds_since(begin) * 1e6);
      const std::string bytes = request_text.str();
      begin = Clock::now();
      std::string response;
      {
        ScopedSpan request_span("server.request");
        response = send_request(server.port(), bytes);
      }
      const double latency_ms = seconds_since(begin) * 1e3;
      (seen.insert(keys[i]).second ? first_ms : repeat_ms)
          .push_back(latency_ms);
      begin = Clock::now();
      std::istringstream in(response);
      ftsched::server::ServerResponse parsed;
      {
        ScopedSpan read_span("server.read_response");
        parsed = ftsched::server::read_server_response(in);
      }
      read_us.push_back(seconds_since(begin) * 1e6);
      checks.expect(
          parsed.kind == ftsched::server::ServerResponse::Kind::kReport,
          "probe: server answered with a report");
    }
    const std::string failure = server.stop();
    checks.expect(failure.empty(),
                  "probe: server drained and exited 0 " + failure);
  }
  std::ifstream metrics_file(metrics_path);
  const std::string metrics_json((std::istreambuf_iterator<char>(metrics_file)),
                                 std::istreambuf_iterator<char>());
  const double hits =
      static_cast<double>(metrics_counter(metrics_json, "server.cache.hit"));
  const double misses =
      static_cast<double>(metrics_counter(metrics_json, "server.cache.miss"));
  checks.expect(hits + misses > 0, "probe: server reported cache counters");
  add("server.request_write_us", median(write_us), "us");
  add("server.response_read_us", median(read_us), "us");
  add("server.cache_hit_share", hits + misses > 0 ? hits / (hits + misses) : 0,
      "ratio");
  add("server.cache_evictions",
      static_cast<double>(
          metrics_counter(metrics_json, "server.cache.evict")),
      "count");
  add("server.first_request_ms", median(first_ms), "ms");
  add("server.repeat_request_ms",
      repeat_ms.empty() ? 0.0 : median(repeat_ms), "ms");
  return metrics;
}

}  // namespace perfbench
