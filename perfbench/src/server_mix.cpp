#include "server_mix.hpp"

#include <algorithm>
#include <fstream>
#include <cmath>
#include <csignal>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "harness.hpp"
#include "server/socket.hpp"

namespace perfbench {

const char* spec_kind_name(SpecKind kind) {
  switch (kind) {
    case SpecKind::kUniform:
      return "uniform-k";
    case SpecKind::kWindowExact:
      return "window-exact";
    case SpecKind::kWindowBuckets:
      return "window-buckets";
  }
  return "?";
}

ftsched::CampaignSpec mix_spec(SpecKind kind, double horizon,
                               std::uint64_t campaign_seed) {
  ftsched::CampaignSpec spec;
  spec.algorithms = {"caft", "ftsa", "ftbar"};
  spec.seed = campaign_seed;
  if (kind == SpecKind::kUniform) {
    spec.sampler = ftsched::SamplerSpec::uniform_k(2);
    spec.replays = 20000;
    return spec;
  }
  spec.sampler = ftsched::SamplerSpec::window(2, 0.0, horizon / 2.0);
  spec.replays = 50;
  if (kind == SpecKind::kWindowBuckets) spec.theta_buckets = 64;
  return spec;
}

std::vector<MixRequest> mix_deck(std::size_t pool_size) {
  constexpr double kDeckSize = 60.0;
  double total = 0.0;
  for (std::size_t rank = 0; rank < pool_size; ++rank)
    total += 1.0 / static_cast<double>(rank + 1);
  std::vector<MixRequest> deck;
  bool exact_next = true;
  for (std::size_t rank = 0; rank < pool_size; ++rank) {
    const auto count = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               kDeckSize / static_cast<double>(rank + 1) / total)));
    const auto uniform = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(0.7 * static_cast<double>(count))));
    for (std::size_t i = 0; i < count; ++i) {
      MixRequest request{rank, SpecKind::kUniform};
      if (i >= uniform) {
        request.kind =
            exact_next ? SpecKind::kWindowExact : SpecKind::kWindowBuckets;
        exact_next = !exact_next;
      }
      deck.push_back(request);
    }
  }
  return deck;
}

MixRequest mix_request(std::uint64_t seed, std::size_t stream,
                       std::size_t index, std::size_t pool_size) {
  std::vector<MixRequest> deck = mix_deck(pool_size);
  const std::size_t pass = index / deck.size();
  // Fisher-Yates with SplitMix64 draws, seeded per (seed, stream, pass).
  std::uint64_t state = derive_seed(derive_seed(seed, 1000 + stream), pass);
  for (std::size_t i = deck.size() - 1; i > 0; --i) {
    state = derive_seed(state, i);
    std::swap(deck[i], deck[state % (i + 1)]);
  }
  return deck[index % deck.size()];
}

std::string mix_fingerprint(std::uint64_t seed, std::size_t stream,
                            std::size_t count, std::size_t pool_size) {
  std::string text;
  for (std::size_t i = 0; i < count; ++i) {
    const MixRequest request = mix_request(seed, stream, i, pool_size);
    text += std::to_string(request.instance) + ":" +
            std::to_string(static_cast<int>(request.kind)) + ";";
  }
  return text;
}

std::string send_request(std::uint16_t port,
                         const std::string& request_bytes) {
  const std::unique_ptr<ftsched::server::SocketStream> stream =
      ftsched::server::connect_to("127.0.0.1", port);
  stream->write(request_bytes.data(),
                static_cast<std::streamsize>(request_bytes.size()));
  stream->flush();
  return std::string(std::istreambuf_iterator<char>(*stream),
                     std::istreambuf_iterator<char>());
}

ServerProcess::ServerProcess(const std::string& binary,
                             const std::string& log_path,
                             const std::vector<std::string>& extra)
    : log_path_(log_path) {
  std::vector<std::string> argv = {binary,    "--port",         "0",
                                   "--threads", "2", "--max-inflight", "2"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  child_ = std::make_unique<ChildProcess>(argv, log_path);
  // "campaign_server listening on ADDR:PORT"
  const std::string line = child_->read_line(60.0);
  const std::size_t colon = line.rfind(':');
  if (line.find("listening on") == std::string::npos ||
      colon == std::string::npos)
    throw std::runtime_error("unexpected server startup line: " + line);
  port_ = static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
}

double ServerProcess::peak_rss_mib() const {
  return perfbench::peak_rss_mib(static_cast<int>(child_->pid()));
}

std::string ServerProcess::stop() {
  // campaign_server prints its listening line before it installs its
  // SIGTERM handler, and a SIGTERM in between kills it (status -15)
  // instead of draining it. The set-up loop stops servers right after
  // that line, so stop() first waits for the handler; the workload counts
  // the waits and prints them.
  stop_waited_ = child_->await_handler(SIGTERM, 5.0);
  const int code = child_->stop();
  if (code == 0) return "";
  std::ifstream log(log_path_);
  const std::string text((std::istreambuf_iterator<char>(log)),
                         std::istreambuf_iterator<char>());
  return "exit status " + std::to_string(code) + ", log tail: " +
         text.substr(text.size() > 400 ? text.size() - 400 : 0);
}

std::uint64_t metrics_counter(const std::string& json,
                              const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  std::istringstream value(json.substr(at + key.size()));
  std::uint64_t count = 0;
  value >> count;
  return count;
}

}  // namespace perfbench
