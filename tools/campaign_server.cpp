/// campaign_server — campaigns as a service: a long-running daemon that
/// wraps one in-process ftsched::Session behind the campaign wire protocol
/// (src/server/server_wire.hpp) and amortizes instance loads, schedules
/// and replay-engine templates across requests through a content-addressed
/// cache. The report a client receives is byte-identical to running the
/// same campaign locally (campaign_cli / Session::evaluate) — cache hit or
/// miss, alone or under concurrent load.
///
/// Usage:
///   campaign_server [--listen ADDR] [--port N] [--cache-size N]
///                   [--max-inflight N] [--queue-limit N]
///                   [--threads N] [--engine incremental|naive]
///                   [--block N]
///                   [--metrics-out FILE] [--trace-out FILE] [--version]
///
///   --listen ADDR      interface to bind, IPv4 dotted quad (default
///                      127.0.0.1 — local-only; 0.0.0.0 for all interfaces)
///   --port N           TCP port; 0 binds an ephemeral port (default 7070).
///                      The bound port is always printed on the startup
///                      line, so harnesses pass --port 0 and scrape it.
///   --cache-size N     content-addressed cache entry budget, all artifact
///                      families combined (default 64; 0 disables caching)
///   --max-inflight N   concurrent campaign evaluations (default 2; 0
///                      rejects every request — drain/maintenance mode)
///   --queue-limit N    requests allowed to wait for a slot before an
///                      immediate busy rejection (default 8)
///   --threads/--engine/--block
///                      the wrapped Session's execution knobs, exactly as
///                      campaign_cli takes them. Execution policy is
///                      in-process by design: byte-identity leans on
///                      in-process early-stopping determinism.
///
/// On SIGTERM/SIGINT the server drains: it stops accepting, finishes every
/// in-flight request, then exits 0. Observability artifacts (inert, like
/// everywhere else in the library) are written after the drain.
///
/// The startup line — `campaign_server listening on ADDR:PORT` — goes to
/// stdout and is flushed immediately; everything else goes to stderr.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <thread>

#include "campaign_spec_cli.hpp"
#include "common/build_info.hpp"
#include "common/cli_args.hpp"
#include "server/server.hpp"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void handle_shutdown_signal(int) { g_shutdown = 1; }

}  // namespace

int main(int argc, char** argv) {
  const caft::CliArgs args = caft::CliArgs::parse_or_exit(
      argc, argv,
      ftsched::tools::declare_flags(
          {"help", "version", "listen", "port", "cache-size", "max-inflight",
           "queue-limit", "threads", "engine", "block"},
          {ftsched::tools::observability_flags()}));
  if (args.has("help")) {
    std::printf("see the header of tools/campaign_server.cpp for usage\n");
    return 0;
  }
  if (args.has("version")) {
    std::printf("%s\n", caft::version_line().c_str());
    return 0;
  }
  try {
    ftsched::tools::arm_observability(args);

    ftsched::server::ServerOptions options;
    options.listen_address = caft::CliArgs::check_listen_address(
        "listen", args.get("listen", "127.0.0.1"));
    options.port = caft::CliArgs::check_port("port", args.get("port", "7070"));
    options.cache_capacity = args.get_size("cache-size", 64);
    options.max_inflight = args.get_size("max-inflight", 2);
    options.queue_limit = args.get_size("queue-limit", 8);
    options.session.threads = args.get_size("threads", 0);
    options.session.engine =
        args.get_choice("engine", "incremental", {"incremental", "naive"}) ==
                "incremental"
            ? caft::CampaignEngine::kIncremental
            : caft::CampaignEngine::kNaive;
    options.session.block = args.get_size("block", options.session.block);

    // Handlers go in before the listener opens and before the startup
    // line: a harness may send SIGTERM the moment it reads that line, and
    // the default disposition would kill the server instead of draining it.
    std::signal(SIGTERM, handle_shutdown_signal);
    std::signal(SIGINT, handle_shutdown_signal);
    ftsched::server::CampaignServer daemon(options);
    daemon.start();
    // The one stdout line, flushed so a harness that started us with
    // --port 0 can scrape the real port before any client connects.
    std::printf("campaign_server listening on %s:%u\n",
                options.listen_address.c_str(),
                static_cast<unsigned>(daemon.port()));
    std::fflush(stdout);

    while (g_shutdown == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::fprintf(stderr, "campaign_server draining...\n");
    daemon.stop();  // stop accepting, finish every in-flight request
    std::fprintf(stderr, "campaign_server drained, exiting\n");
    ftsched::tools::write_observability_outputs(args);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
