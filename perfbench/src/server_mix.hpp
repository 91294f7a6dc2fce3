/// \file server_mix.hpp
/// The server workload's traffic: a seeded pool of instance files, the
/// three campaign specs a request can carry, the skewed request mix, a
/// blocking loopback client, and the campaign_server process handle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "process.hpp"

namespace perfbench {

/// What a request asks the server to campaign.
enum class SpecKind : std::uint8_t {
  kUniform = 0,        ///< uniform-k(2), 20k replays: the paper's model
  kWindowExact = 1,    ///< crash-window(2, θ ~ U[0, H/2]), exact replays
  kWindowBuckets = 2,  ///< the same window with theta_buckets = 64
};
inline constexpr std::size_t kSpecKinds = 3;
[[nodiscard]] const char* spec_kind_name(SpecKind kind);

/// One pool entry: the instance file's bytes and its fault-free CAFT
/// horizon H (the crash window is [0, H/2]).
struct PoolInstance {
  std::string path;
  std::string bytes;
  double caft_horizon = 0.0;
};

/// The spec of `kind` for an instance whose CAFT horizon is `horizon`.
[[nodiscard]] ftsched::CampaignSpec mix_spec(SpecKind kind, double horizon,
                                             std::uint64_t campaign_seed);

/// One request of the mix: which pool instance and which spec kind.
struct MixRequest {
  std::size_t instance = 0;
  SpecKind kind = SpecKind::kUniform;
};

/// One pass of the mix over a pool of `pool_size` instances. Rank r occurs
/// in proportion to 1 / (r + 1), at least once, so some instances recur
/// while the tail overflows the server's cache; about two thirds of each
/// rank's requests are uniform-k, the rest alternate between the window
/// kinds. Sixty requests for a pool of twelve.
[[nodiscard]] std::vector<MixRequest> mix_deck(std::size_t pool_size);

/// Request `index` of request stream `stream`: the stream concatenates
/// seeded shuffles of the deck, so every deck-aligned run of requests has
/// the deck's composition whatever the seed, and only the order varies. A
/// pure function of its arguments.
[[nodiscard]] MixRequest mix_request(std::uint64_t seed, std::size_t stream,
                                     std::size_t index,
                                     std::size_t pool_size);

/// The first `count` requests of `stream`, serialized as "i:k;" pairs —
/// the byte form the self-test pins per seed.
[[nodiscard]] std::string mix_fingerprint(std::uint64_t seed,
                                          std::size_t stream,
                                          std::size_t count,
                                          std::size_t pool_size);

/// Key of a distinct request: instance * kSpecKinds + kind.
[[nodiscard]] inline std::size_t request_key(const MixRequest& request) {
  return request.instance * kSpecKinds +
         static_cast<std::size_t>(request.kind);
}

/// Sends one serialized request to 127.0.0.1:`port` and returns every byte
/// the server answered with. Throws caft::CheckError on socket failures.
[[nodiscard]] std::string send_request(std::uint16_t port,
                                       const std::string& request_bytes);

/// A running campaign_server: `--port 0 --threads 2 --max-inflight 2` plus
/// `extra` flags; the constructor returns once the listening line is read.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& log_path,
                const std::vector<std::string>& extra = {});
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] double peak_rss_mib() const;
  /// SIGTERM (the server drains and writes --metrics-out) and reap. Empty
  /// when the server exited 0; otherwise its exit status and the tail of
  /// its log.
  std::string stop();
  /// Whether stop() found the server not yet catching SIGTERM and waited.
  [[nodiscard]] bool stop_waited() const { return stop_waited_; }

 private:
  std::unique_ptr<ChildProcess> child_;
  std::string log_path_;
  std::uint16_t port_ = 0;
  bool stop_waited_ = false;
};

/// Reads counter `name` from an obs metrics JSON document (0 if absent).
[[nodiscard]] std::uint64_t metrics_counter(const std::string& json,
                                            const std::string& name);

}  // namespace perfbench
