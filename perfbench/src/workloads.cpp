#include "workloads.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>

#include "api/api.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "server/server_wire.hpp"
#include "server_mix.hpp"
#include "sim/replay_engine.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

/// Runs `op(backend)` (returning its wall seconds) over `backends`
/// backends: first until every backend has `min_reps` operations, then
/// always the backend with the least accumulated time, until `seconds`
/// have passed. Interleaving spreads drift over all backends alike.
/// `single_pass` runs one operation per backend.
template <typename Op>
void balanced_loop(std::size_t backends, double seconds, bool single_pass,
                   Op&& op) {
  const std::size_t min_reps = single_pass ? 1 : 3;
  std::vector<double> spent(backends, 0.0);
  std::vector<std::size_t> reps(backends, 0);
  const Clock::time_point begin = Clock::now();
  for (;;) {
    std::size_t next = 0;
    for (std::size_t b = 1; b < backends; ++b)
      if (reps[b] < reps[next]) next = b;
    if (reps[next] >= min_reps) {
      if (single_pass || seconds_since(begin) >= seconds) return;
      next = 0;
      for (std::size_t b = 1; b < backends; ++b)
        if (spent[b] < spent[next]) next = b;
    }
    spent[next] += op(next);
    ++reps[next];
  }
}

/// Per-operation samples of a backend-interleaved workload (backend 0 is
/// `nproc` threads, backend 1 is one thread) and the end-to-end metrics
/// they give.
class OpLog {
 public:
  void clear() {
    samples_.clear();
    peak_rss_ = 0.0;
  }
  void add(std::size_t backend, double work, double wall) {
    samples_.push_back({backend, work / wall, wall});
  }
  void set_peak_rss(double mib) { peak_rss_ = mib; }

  [[nodiscard]] std::vector<double> rates(std::size_t backend) const {
    std::vector<double> values;
    for (const Sample& sample : samples_)
      if (sample.backend == backend) values.push_back(sample.rate);
    return values;
  }
  [[nodiscard]] std::vector<Metric> end_to_end() const {
    std::vector<double> walls;
    for (const Sample& sample : samples_)
      if (sample.backend == 0) walls.push_back(sample.wall);
    return {{"throughput_per_s", median(rates(0)), "1/s"},
            {"throughput_serial_per_s", median(rates(1)), "1/s"},
            {"op_p50_ms", median(walls) * 1e3, "ms"},
            {"peak_rss_mb", peak_rss_, "MiB"}};
  }

 private:
  struct Sample {
    std::size_t backend = 0;
    double rate = 0.0;
    double wall = 0.0;
  };
  std::vector<Sample> samples_;
  double peak_rss_ = 0.0;
};

std::string report_bytes(const ftsched::CampaignReport& report) {
  std::ostringstream out;
  ftsched::server::write_campaign_report(out, report);
  return out.str();
}

caft::RandomDagParams fixed_size_dag(std::size_t tasks) {
  caft::RandomDagParams dag;
  dag.min_tasks = tasks;
  dag.max_tasks = tasks;
  return dag;
}

const char* const kBackendNames[] = {"threads=nproc", "threads=1",
                                     "subprocess"};

// ------------------------------------------------------------ campaigns

/// paper-uniform-k and large-crash-window: one instance, its schedules and
/// replay templates built in setup; each operation campaigns every
/// algorithm once on one backend.
struct CampaignParams {
  std::size_t tasks = 100;
  std::size_t procs = 10;
  std::size_t eps = 2;
  std::vector<std::string> algorithms;
  bool window = false;  ///< crash-window(2, θ ~ U[0, H/2]) vs uniform-k(2)
  std::size_t replays = 0;  ///< per algorithm and operation
  bool subprocess = false;  ///< third backend
};

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(Env env, CampaignParams params)
      : env_(std::move(env)), params_(std::move(params)) {}

  void setup() override {
    engines_.clear();
    schedules_.clear();
    instance_ = build_instance(fixed_size_dag(params_.tasks),
                               caft::CostSynthesisParams{}, params_.procs,
                               params_.eps, instance_seed());
    spec_ = ftsched::CampaignSpec{};
    spec_.algorithms = params_.algorithms;
    spec_.seed = derive_seed(env_.seed, 2);
    spec_.replays = params_.replays;
    spec_.request.eps = params_.eps;
    const ftsched::SchedulerRegistry& registry =
        ftsched::SchedulerRegistry::global();
    schedules_.reserve(params_.algorithms.size());
    for (const std::string& name : params_.algorithms) {
      ScopedSpan span("algo." + name + ".schedule");
      schedules_.push_back(
          registry.make(name)->schedule(*instance_, spec_.request));
    }
    // algorithms[0] is caft: its fault-free latency is the horizon H.
    spec_.sampler =
        params_.window
            ? ftsched::SamplerSpec::window(2, 0.0,
                                           schedules_.front().makespan / 2.0)
            : ftsched::SamplerSpec::uniform_k(2);
    for (const ftsched::ScheduleResult& result : schedules_) {
      ScopedSpan span("sim.engine_build");
      engines_.push_back(std::make_unique<caft::ReplayEngine>(
          result.schedule, instance_->costs()));
    }
  }

  void measure(double seconds, bool single_pass) override {
    ops_.clear();
    log_.clear();
    next_stream_[0] = next_stream_[1] = next_stream_[2] = 0;
    balanced_loop(params_.subprocess ? 3 : 2, seconds, single_pass,
                  [this](std::size_t backend) { return run_op(backend); });
    log_.set_peak_rss(peak_rss_mib());
  }

  std::string verify(Checks& checks) override {
    std::map<std::size_t, std::uint64_t> first_by_stream;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      const std::string where = std::string(kBackendNames[op.backend]) +
                                " operation " + std::to_string(i);
      checks.expect(op.budget_ok,
                    where + ": executed replays equal the requested budget");
      checks.expect(op.within_eps_ok,
                    where + ": every replay with <= eps crashes succeeded");
      const auto [it, fresh] = first_by_stream.emplace(op.stream, op.digest);
      if (!fresh)
        checks.expect(op.digest == it->second,
                      where + ": report bytes identical across backends");
    }
    return hex64(first_by_stream.at(0));
  }

  std::vector<Metric> end_to_end() const override {
    return log_.end_to_end();
  }

  void print_details(std::ostream& os) const override {
    os << "  unit of work: one replay; one operation campaigns "
       << params_.algorithms.size() << " algorithm(s) x " << params_.replays
       << " replays of one of " << kStreams << " scenario streams\n";
    for (std::size_t b = 0; b < (params_.subprocess ? 3u : 2u); ++b) {
      const std::vector<double> rates = log_.rates(b);
      if (rates.empty()) continue;
      os << "  " << kBackendNames[b] << ": " << rates.size()
         << " operations, median " << median(rates) << " replays/s\n";
    }
  }

  ProbeInputs probe_inputs() const override {
    ProbeInputs inputs;
    inputs.dag = fixed_size_dag(params_.tasks);
    inputs.procs = params_.procs;
    inputs.eps = params_.eps;
    inputs.instance_seed = instance_seed();
    inputs.spec = spec_;
    return inputs;
  }

 private:
  /// Operations cycle through this many campaign seeds (scenario
  /// streams), the same cycle on every backend, so a run's medians cover
  /// more scenarios than one stream holds.
  static constexpr std::size_t kStreams = 8;

  struct Op {
    std::size_t backend = 0;
    std::size_t stream = 0;
    std::uint64_t digest = 0;
    bool budget_ok = false;
    bool within_eps_ok = false;
  };

  [[nodiscard]] std::uint64_t instance_seed() const {
    return derive_seed(env_.seed, 1);
  }

  double run_op(std::size_t backend) {
    ftsched::SessionOptions options;
    if (backend == 2) {
      options.exec =
          ftsched::ExecutionPolicy::subprocess(env_.worker_bin, env_.threads);
      options.exec.worker_threads = 1;
    } else {
      options.threads = backend == 0 ? env_.threads : 1;
    }
    const ftsched::Session session(options);
    Op op;
    op.backend = backend;
    op.stream = next_stream_[backend]++ % kStreams;
    ftsched::CampaignSpec spec = spec_;
    spec.seed = derive_seed(spec_.seed, op.stream);
    ftsched::CampaignReport report;
    const Clock::time_point begin = Clock::now();
    {
      ScopedSpan span(backend == 2 ? "api.subprocess_evaluate"
                                   : "campaign.evaluate");
      for (std::size_t i = 0; i < schedules_.size(); ++i)
        report.runs.push_back(
            backend == 2
                ? session.evaluate_schedule(*instance_, schedules_[i], spec)
                : session.evaluate_schedule(*instance_, schedules_[i], spec,
                                            engines_[i].get()));
    }
    const double wall = seconds_since(begin);

    op.budget_ok = true;
    op.within_eps_ok = true;
    std::size_t replays = 0;
    for (const ftsched::CampaignRun& run : report.runs) {
      replays += run.telemetry.replays;
      op.budget_ok = op.budget_ok && run.telemetry.replays == spec_.replays;
      // Prop. 5.2: k = 2 crashes <= eps = 2, so every replay must succeed.
      op.within_eps_ok = op.within_eps_ok &&
                         run.summary.replays_within_eps == spec_.replays &&
                         run.summary.successes_within_eps == spec_.replays;
    }
    std::string bytes = report_bytes(report);
    if (env_.perturb_output && ops_.empty()) bytes[bytes.size() / 2] ^= 1;
    op.digest = fnv1a64(bytes);
    ops_.push_back(op);
    log_.add(backend, static_cast<double>(replays), wall);
    return wall;
  }

  Env env_;
  CampaignParams params_;
  std::unique_ptr<ftsched::Instance> instance_;
  std::vector<ftsched::ScheduleResult> schedules_;
  std::vector<std::unique_ptr<caft::ReplayEngine>> engines_;
  ftsched::CampaignSpec spec_;
  std::size_t next_stream_[3] = {0, 0, 0};
  std::vector<Op> ops_;
  OpLog log_;
};

// --------------------------------------------------------- paper-figure

/// Figure 3 of the paper (sweep A, m = 20, eps = 5, 3 crashes) through
/// caft::run_experiment. One operation evaluates one sweep point: every
/// algorithm, both fault-free baselines and the crash re-executions on
/// `graphs_per_point` graphs. Operation k of a backend runs point k mod 10
/// on graphs drawn from its own seed, so a run never repeats a graph.
/// Operations come in rounds of the whole sweep, so each backend's median
/// is over whole sweeps however fast the build is; backends run the same
/// sequence.
class PaperFigureWorkload final : public Workload {
 public:
  explicit PaperFigureWorkload(Env env) : env_(std::move(env)) {}

  void setup() override {
    {
      ScopedSpan span("exp.config");
      config_ = caft::figure3();
      config_.graphs_per_point = kGraphsPerPoint;
      config_.seed = derive_seed(env_.seed, 3);
    }
    {
      ScopedSpan span("api.registry");
      const ftsched::SchedulerRegistry& registry =
          ftsched::SchedulerRegistry::global();
      for (const std::string& name : config_.algorithms)
        (void)registry.make(name);
      (void)registry.make("heft");
    }
    // Lazy set-up (first-touch allocation, code paging) finishes here, on
    // one graph per thread at the first point, so the timed operations do
    // not pay it.
    caft::ExperimentConfig warmup = config_;
    warmup.granularities = {config_.granularities.front()};
    warmup.graphs_per_point = env_.threads;
    set_threads(env_.threads);
    ScopedSpan span("exp.run_experiment");
    (void)caft::run_experiment(warmup);
  }

  /// Rounds of every sweep point on both backends, alternating operation
  /// by operation so drift hits both alike. A round starts only if one
  /// more of the last round's length still ends within `seconds`; the
  /// first always runs. `single_pass` runs point 0 once per backend.
  void measure(double seconds, bool single_pass) override {
    ops_.clear();
    log_.clear();
    const std::size_t points =
        single_pass ? 1 : config_.granularities.size();
    const Clock::time_point begin = Clock::now();
    for (std::size_t round = 0;; ++round) {
      const Clock::time_point round_begin = Clock::now();
      for (std::size_t point = 0; point < points; ++point)
        for (std::size_t backend = 0; backend < 2; ++backend)
          run_op(backend, round * points + point);
      if (single_pass ||
          seconds_since(begin) + seconds_since(round_begin) > seconds)
        break;
    }
    log_.set_peak_rss(peak_rss_mib());
  }

  std::string verify(Checks& checks) override {
    std::map<std::size_t, std::uint64_t> first_by_index;
    for (const Op& op : ops_) {
      const std::string where = std::string(kBackendNames[op.backend]) +
                                " operation " + std::to_string(op.index);
      checks.expect(op.crash_failures == 0,
                    where + ": no crash re-execution lost a task (Prop. 5.2)");
      const auto [it, fresh] = first_by_index.emplace(op.index, op.digest);
      if (!fresh)
        checks.expect(op.digest == it->second,
                      where + ": averages identical across thread counts");
    }
    return hex64(first_by_index.at(0));
  }

  std::vector<Metric> end_to_end() const override {
    return log_.end_to_end();
  }

  void print_details(std::ostream& os) const override {
    os << "  unit of work: one graph instance (3 FT schedules, 2 fault-free "
          "baselines, 3 crash re-executions); one operation = one sweep "
          "point of "
       << kGraphsPerPoint << " graphs\n";
    for (std::size_t b = 0; b < 2; ++b)
      os << "  " << kBackendNames[b] << ": " << log_.rates(b).size()
         << " operations, median " << median(log_.rates(b))
         << " instances/s\n";
  }

  ProbeInputs probe_inputs() const override {
    ProbeInputs inputs;
    inputs.dag = config_.dag;
    inputs.costs = config_.costs;
    inputs.costs.granularity = 1.0;
    inputs.procs = config_.proc_count;
    inputs.eps = config_.eps;
    inputs.instance_seed = derive_seed(env_.seed, 4);
    inputs.spec.algorithms = {"caft", "ftsa", "ftbar"};
    inputs.spec.sampler = ftsched::SamplerSpec::uniform_k(config_.crashes);
    inputs.spec.replays = 256;
    inputs.spec.seed = derive_seed(env_.seed, 5);
    return inputs;
  }

 private:
  static constexpr std::size_t kGraphsPerPoint = 8;

  struct Op {
    std::size_t backend = 0;
    std::size_t index = 0;  ///< point index mod 10, graphs seeded by index
    std::uint64_t digest = 0;
    std::size_t crash_failures = 0;
  };

  /// run_experiment sizes its thread pool from CAFT_THREADS.
  static void set_threads(std::size_t threads) {
    ::setenv("CAFT_THREADS", std::to_string(threads).c_str(), 1);
  }

  void run_op(std::size_t backend, std::size_t index) {
    Op op;
    op.backend = backend;
    op.index = index;
    caft::ExperimentConfig config = config_;
    config.granularities = {
        config_.granularities[op.index % config_.granularities.size()]};
    config.seed = derive_seed(config_.seed, op.index);
    set_threads(backend == 0 ? env_.threads : 1);
    std::vector<caft::PointAverages> points;
    const Clock::time_point begin = Clock::now();
    {
      ScopedSpan span("exp.run_experiment");
      points = caft::run_experiment(config);
    }
    const double wall = seconds_since(begin);

    const caft::PointAverages& point = points.front();
    op.crash_failures = point.crash_failures;
    std::string bytes = format(point);
    if (env_.perturb_output && ops_.empty()) bytes[bytes.size() / 2] ^= 1;
    op.digest = fnv1a64(bytes);
    ops_.push_back(op);
    log_.add(backend, static_cast<double>(config.graphs_per_point), wall);
  }

  /// Every field of a point, doubles as hexfloats (bit-exact).
  static std::string format(const caft::PointAverages& point) {
    std::string text;
    char buffer[64];
    const auto put = [&](double value) {
      std::snprintf(buffer, sizeof buffer, "%a ", value);
      text += buffer;
    };
    put(point.granularity);
    put(point.ff_caft);
    put(point.ff_ftbar);
    text += std::to_string(point.crash_failures) + "\n";
    for (const auto& [name, averages] : point.algos) {
      text += name + " ";
      for (const double value :
           {averages.latency0, averages.latency_ub, averages.latency_crash,
            averages.overhead0, averages.overhead_crash, averages.messages,
            averages.messages_per_edge})
        put(value);
      text += "\n";
    }
    return text;
  }

  Env env_;
  caft::ExperimentConfig config_;
  std::vector<Op> ops_;
  OpLog log_;
};

// -------------------------------------------------------- server-mixed

/// A closed loop against the shipped campaign_server: two client
/// connections, then one, each sending its next request as soon as the
/// previous report has arrived.
class ServerMixedWorkload final : public Workload {
 public:
  explicit ServerMixedWorkload(Env env) : env_(std::move(env)) {}
  ~ServerMixedWorkload() override { teardown(); }

  void setup() override {
    pool_.clear();
    request_bytes_.assign(kPoolSize * kSpecKinds, std::string());
    const ftsched::SchedulerRegistry& registry =
        ftsched::SchedulerRegistry::global();
    for (std::size_t rank = 0; rank < kPoolSize; ++rank) {
      const std::unique_ptr<ftsched::Instance> instance =
          build_instance(fixed_size_dag(pool_tasks(rank)),
                         caft::CostSynthesisParams{}, kProcs, kEps,
                         pool_seed(rank));
      PoolInstance entry;
      entry.path =
          env_.work_dir + "/pool_instance_" + std::to_string(rank) + ".txt";
      {
        ScopedSpan span("io.instance_save");
        instance->save(entry.path);
      }
      {
        ScopedSpan span("io.read_file");
        std::ifstream in(entry.path, std::ios::binary);
        entry.bytes.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
      }
      {
        ScopedSpan span("algo.caft.schedule");
        ftsched::ScheduleRequest request;
        request.eps = kEps;
        entry.caft_horizon =
            registry.make("caft")->schedule(*instance, request).makespan;
      }
      for (std::size_t kind = 0; kind < kSpecKinds; ++kind) {
        ScopedSpan span("server.write_request");
        std::ostringstream out;
        ftsched::server::write_campaign_request(
            out, request(static_cast<SpecKind>(kind), entry));
        request_bytes_[rank * kSpecKinds + kind] = out.str();
      }
      pool_.push_back(std::move(entry));
    }
    ScopedSpan span("server.spawn");
    server_ = std::make_unique<ServerProcess>(
        env_.server_bin, env_.work_dir + "/campaign_server.log");
  }

  void teardown() override {
    if (!server_) return;
    const std::string failure = server_->stop();
    if (!failure.empty()) stop_failures_.push_back(failure);
    ++stops_;
    if (server_->stop_waited()) ++stops_waited_;
    server_.reset();
  }

  void measure(double seconds, bool single_pass) override {
    samples_.clear();
    errors_.clear();
    const std::size_t quota = single_pass ? 12 : 0;
    {
      // Both connections draw from request stream 0 in order, so the
      // requests of the phase follow the deck whatever the interleaving.
      ScopedSpan phase("server.two_clients");
      std::atomic<std::size_t> next{0};
      const Clock::time_point begin = Clock::now();
      std::thread second([&] {
        client(0, next, 0, begin, seconds * 0.6, quota, phase.id());
      });
      client(0, next, 0, begin, seconds * 0.6, quota, phase.id());
      second.join();
      two_client_wall_ = seconds_since(begin);
    }
    // The serial phase starts from a fresh server. Its peak memory is a
    // function of the request stream; under two connections the peak also
    // depends on how threads and allocator arenas interleave, and varies
    // by a quarter from run to run with the same seed.
    concurrent_rss_ = server_->peak_rss_mib();
    teardown();
    {
      ScopedSpan span("server.spawn");
      server_ = std::make_unique<ServerProcess>(
          env_.server_bin, env_.work_dir + "/campaign_server.log");
    }
    {
      ScopedSpan phase("server.one_client");
      std::atomic<std::size_t> next{0};
      const Clock::time_point begin = Clock::now();
      client(1, next, 1, begin, seconds * 0.4, quota / 2, phase.id());
      one_client_wall_ = seconds_since(begin);
    }
    peak_rss_ = server_->peak_rss_mib();
  }

  std::string verify(Checks& checks) override {
    // The loop is over: stop the server first, so its drain is checked too.
    teardown();
    checks.expect(stop_failures_.empty(), "server drained and exited 0");
    for (const std::string& failure : stop_failures_)
      checks.expect(false, "server shutdown: " + failure);
    for (const std::string& error : errors_)
      checks.expect(false, "request failed: " + error);
    for (std::size_t phase = 0; phase < 2; ++phase)
      checks.expect(count(phase) > 0, "phase " + std::to_string(phase) +
                                          " completed a request");
    // One in-process reference per distinct request (outside the timed
    // window): the report bytes a local Session::evaluate of the same
    // (instance bytes, spec) serializes to.
    std::map<std::size_t, std::uint64_t> reference;
    const auto reference_of = [&](std::size_t key) {
      const auto it = reference.find(key);
      if (it != reference.end()) return it->second;
      const std::size_t rank = key / kSpecKinds;
      const auto kind = static_cast<SpecKind>(key % kSpecKinds);
      std::istringstream in(pool_[rank].bytes);
      const ftsched::Instance instance = ftsched::Instance::load(in);
      ftsched::SessionOptions options;
      options.threads = env_.threads;
      const ftsched::Session session(options);
      const std::uint64_t digest = fnv1a64(report_bytes(session.evaluate(
          instance, request(kind, pool_[rank]).spec)));
      reference.emplace(key, digest);
      return digest;
    };
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      const Sample& sample = samples_[i];
      const std::uint64_t got =
          env_.perturb_output && i == 0 ? sample.digest ^ 1 : sample.digest;
      checks.expect(sample.report && got == reference_of(sample.key),
                    "request " + std::to_string(i) + " (key " +
                        std::to_string(sample.key) +
                        "): server report equals the in-process reference" +
                        (sample.report ? "" : "; got: " + sample.head));
    }
    // The digest pins the references of client 0's first requests, which
    // do not depend on how many requests the run had time for.
    std::string digests;
    for (std::size_t i = 0; i < kDigestRequests; ++i)
      digests += hex64(reference_of(
          request_key(mix_request(env_.seed, 0, i, kPoolSize))));
    return hex64(fnv1a64(digests));
  }

  std::vector<Metric> end_to_end() const override {
    return {{"throughput_per_s",
             static_cast<double>(count(0)) / two_client_wall_, "1/s"},
            {"throughput_serial_per_s",
             static_cast<double>(count(1)) / one_client_wall_, "1/s"},
            {"op_p50_ms", median_ms(0), "ms"},
            {"peak_rss_mb", peak_rss_, "MiB"}};
  }

  void print_details(std::ostream& os) const override {
    os << "  unit of work: one request; closed loop of 2 client "
          "connections on request stream 0, then 1 on stream 1 against a "
          "fresh server\n";
    os << "  server stops: " << stops_ << ", of which " << stops_waited_
       << " waited for the SIGTERM handler (campaign_server prints its "
          "listening line before installing it)\n";
    os << "  server peak RSS: " << concurrent_rss_
       << " MiB after the 2-connection phase, " << peak_rss_
       << " MiB after the serial phase (the metric)\n";
    for (std::size_t phase = 0; phase < 2; ++phase) {
      const std::vector<double> latency = latencies(phase);
      os << "  " << (phase == 0 ? "2 clients" : "1 client ") << ": "
         << latency.size() << " requests";
      if (latency.empty()) {
        os << "\n";
        continue;
      }
      os << ", p50 " << median(latency) << " ms";
      const std::optional<TailPercentile> tail = tail_percentile(latency);
      if (tail && tail->fraction > 0.5)
        os << ", tail p" << static_cast<int>(tail->fraction * 100 + 0.5)
           << " " << tail->value << " ms (" << tail->beyond
           << " samples above)";
      else
        os << ", too few samples for a tail above p50";
      os << "\n";
    }
    std::map<std::size_t, std::vector<double>> by_kind;
    for (const Sample& sample : samples_)
      by_kind[sample.key % kSpecKinds].push_back(sample.latency_ms);
    for (const auto& [kind, latency] : by_kind)
      os << "  " << spec_kind_name(static_cast<SpecKind>(kind)) << ": "
         << latency.size() << " requests, p50 " << median(latency) << " ms\n";
  }

  ProbeInputs probe_inputs() const override {
    ProbeInputs inputs;
    inputs.dag = fixed_size_dag(pool_tasks(0));
    inputs.procs = kProcs;
    inputs.eps = kEps;
    inputs.instance_seed = pool_seed(0);
    inputs.spec = request(SpecKind::kUniform, pool_[0]).spec;
    for (std::size_t i = 0; i < 48; ++i) {
      const MixRequest draw = mix_request(env_.seed, 0, i, kPoolSize);
      inputs.server_requests.push_back(
          request(draw.kind, pool_[draw.instance]));
      inputs.server_keys.push_back(request_key(draw));
    }
    return inputs;
  }

 private:
  static constexpr std::size_t kPoolSize = 12;
  static constexpr std::size_t kProcs = 10;
  static constexpr std::size_t kEps = 2;
  static constexpr std::size_t kDigestRequests = 16;

  struct Sample {
    std::size_t phase = 0;
    std::size_t key = 0;
    double latency_ms = 0.0;
    std::uint64_t digest = 0;
    bool report = false;
    std::string head;  ///< first line of a response that is not a report
  };

  /// Pool rank r holds 100 + 200 r / 11 tasks: ranks (and so the skewed
  /// draw's favourites) have the same sizes under every seed.
  static std::size_t pool_tasks(std::size_t rank) {
    return 100 + (200 * rank + 5) / 11;
  }
  [[nodiscard]] std::uint64_t pool_seed(std::size_t rank) const {
    return derive_seed(env_.seed, 100 + rank);
  }

  [[nodiscard]] ftsched::server::CampaignRequest request(
      SpecKind kind, const PoolInstance& entry) const {
    ftsched::server::CampaignRequest request;
    request.spec =
        mix_spec(kind, entry.caft_horizon, derive_seed(env_.seed, 6));
    request.spec.request.eps = kEps;
    request.instance_bytes = entry.bytes;
    return request;
  }

  /// One closed-loop connection: takes the next index of `stream` from
  /// `next`, sends that request, waits for the whole answer, repeats until
  /// `seconds` have passed (or `quota` requests were taken).
  void client(std::size_t stream, std::atomic<std::size_t>& next,
              std::size_t phase, Clock::time_point begin, double seconds,
              std::size_t quota, int phase_span) {
    std::vector<Sample> mine;
    std::string error;
    for (;;) {
      if (quota == 0 && seconds_since(begin) >= seconds) break;
      const std::size_t index = next.fetch_add(1);
      if (quota > 0 && index >= quota) break;
      Sample sample;
      sample.phase = phase;
      sample.key =
          request_key(mix_request(env_.seed, stream, index, kPoolSize));
      try {
        const Clock::time_point sent = Clock::now();
        std::string response;
        {
          ScopedSpan span("server.request", phase_span);
          response =
              send_request(server_->port(), request_bytes_[sample.key]);
        }
        sample.latency_ms = seconds_since(sent) * 1e3;
        sample.report = response.rfind("caft-campaign-report", 0) == 0;
        if (!sample.report)
          sample.head = response.substr(0, 200);
        sample.digest = fnv1a64(response);
      } catch (const std::exception& failure) {
        error = failure.what();
        break;
      }
      mine.push_back(sample);
    }
    const std::lock_guard<std::mutex> guard(lock_);
    samples_.insert(samples_.end(), mine.begin(), mine.end());
    if (!error.empty()) errors_.push_back(error);
  }

  [[nodiscard]] std::vector<double> latencies(std::size_t phase) const {
    std::vector<double> values;
    for (const Sample& sample : samples_)
      if (sample.phase == phase) values.push_back(sample.latency_ms);
    return values;
  }
  [[nodiscard]] std::size_t count(std::size_t phase) const {
    return latencies(phase).size();
  }
  /// 0 for a phase with no completed request; verify() fails that run.
  [[nodiscard]] double median_ms(std::size_t phase) const {
    const std::vector<double> values = latencies(phase);
    return values.empty() ? 0.0 : median(values);
  }

  Env env_;
  std::vector<PoolInstance> pool_;
  std::vector<std::string> request_bytes_;  ///< by request_key
  std::unique_ptr<ServerProcess> server_;
  std::vector<std::string> stop_failures_;
  std::size_t stops_ = 0;
  std::size_t stops_waited_ = 0;  ///< see ServerProcess::stop()
  std::mutex lock_;  ///< guards samples_ and errors_ while clients run
  std::vector<Sample> samples_;
  std::vector<std::string> errors_;
  double concurrent_rss_ = 0.0;
  double two_client_wall_ = 0.0;
  double one_client_wall_ = 0.0;
  double peak_rss_ = 0.0;
};

}  // namespace

caft::TaskGraph instance_graph(const caft::RandomDagParams& dag,
                               std::uint64_t seed) {
  ScopedSpan span("dag.random_dag");
  caft::Rng rng(seed);
  return caft::random_dag(dag, rng);
}

caft::CostModel instance_costs(const caft::TaskGraph& graph,
                               const caft::Platform& platform,
                               const caft::CostSynthesisParams& costs,
                               std::uint64_t seed) {
  ScopedSpan span("platform.synthesize_costs");
  caft::Rng rng(derive_seed(seed, 1));
  return caft::synthesize_costs(graph, platform, costs, rng);
}

std::unique_ptr<ftsched::Instance> build_instance(
    const caft::RandomDagParams& dag, const caft::CostSynthesisParams& costs,
    std::size_t procs, std::size_t eps, std::uint64_t seed) {
  caft::TaskGraph graph = instance_graph(dag, seed);
  auto platform = std::make_unique<caft::Platform>(procs);
  auto model = std::make_unique<caft::CostModel>(
      instance_costs(graph, *platform, costs, seed));
  return std::make_unique<ftsched::Instance>(
      std::move(graph), std::move(platform), std::move(model),
      ftsched::RunOptions{eps});
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-uniform-k", "large-crash-window", "paper-figure",
      "server-mixed"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Env& env) {
  if (name == "paper-uniform-k") {
    CampaignParams params;
    params.tasks = 100;
    params.procs = 10;
    params.algorithms = {"caft", "ftsa", "ftbar"};
    params.replays = 200000;
    params.subprocess = true;
    return std::make_unique<CampaignWorkload>(env, params);
  }
  if (name == "large-crash-window") {
    CampaignParams params;
    params.tasks = 1000;
    params.procs = 32;
    params.algorithms = {"caft"};
    params.window = true;
    params.replays = 24;
    return std::make_unique<CampaignWorkload>(env, params);
  }
  if (name == "paper-figure") return std::make_unique<PaperFigureWorkload>(env);
  if (name == "server-mixed") return std::make_unique<ServerMixedWorkload>(env);
  return nullptr;
}

}  // namespace perfbench
