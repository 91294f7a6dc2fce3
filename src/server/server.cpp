#include "server/server.hpp"

#include <exception>
#include <string>
#include <utility>

#include "campaign/campaign.hpp"
#include "common/check.hpp"

namespace ftsched {
namespace server {

// --- Admission

Admission::Admission(std::size_t max_inflight, std::size_t queue_limit)
    : max_inflight_(max_inflight),
      queue_limit_(queue_limit),
      accepted_(obs::Registry::global().counter("server.requests.accepted")),
      rejected_(obs::Registry::global().counter("server.requests.rejected")),
      queue_depth_(obs::Registry::global().gauge("server.queue.depth")) {}

Admission::Ticket Admission::acquire() {
  std::unique_lock<std::mutex> guard(lock_);
  if (max_inflight_ == 0 || (inflight_ >= max_inflight_ &&
                             waiting_ >= queue_limit_)) {
    rejected_.add(1);
    return Ticket{false, inflight_, waiting_};
  }
  ++waiting_;
  queue_depth_.set(static_cast<double>(waiting_));
  free_slot_.wait(guard, [&] { return inflight_ < max_inflight_; });
  --waiting_;
  queue_depth_.set(static_cast<double>(waiting_));
  ++inflight_;
  accepted_.add(1);
  return Ticket{true, inflight_, waiting_};
}

void Admission::release() {
  {
    const std::lock_guard<std::mutex> guard(lock_);
    --inflight_;
  }
  free_slot_.notify_one();
}

// --- CampaignServer

CampaignServer::CampaignServer(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      admission_(options_.max_inflight, options_.queue_limit) {
  // The byte-identity guarantee needs in-process determinism (wave-boundary
  // early stopping) and a place to plug the cached replay template; the
  // subprocess backend offers neither. A deployment that wants process
  // fan-out runs workers behind the server, not inside it.
  CAFT_CHECK_MSG(
      options_.session.exec.mode == ExecutionPolicy::Mode::kInProcess,
      "the campaign server requires an in-process Session execution policy");
  // A session-level progress callback would fire for every request on a
  // stream it knows nothing about; per-request callbacks are installed in
  // handle() instead.
  CAFT_CHECK_MSG(!options_.session.on_progress,
                 "set per-request progress via the wire protocol, not "
                 "SessionOptions::on_progress");
  // Refuse executor knobs every campaign would refuse, at start-up rather
  // than once per request.
  CAFT_CHECK_MSG(options_.session.threads <= caft::kMaxCampaignThreads,
                 "server threads exceed the cap of " +
                     std::to_string(caft::kMaxCampaignThreads));
  CAFT_CHECK_MSG(options_.session.block >= 1 &&
                     options_.session.block <= caft::kMaxCampaignBlock,
                 "server block size must be in [1, " +
                     std::to_string(caft::kMaxCampaignBlock) + "]");
}

CampaignServer::~CampaignServer() { stop(); }

void CampaignServer::serve(std::istream& in, std::ostream& out) {
  try {
    const CampaignRequest request = read_campaign_request(in);
    const Admission::Ticket ticket = admission_.acquire();
    if (!ticket.admitted) {
      write_campaign_busy(out,
                          BusyInfo{ticket.inflight, ticket.queued,
                                   admission_.max_inflight(),
                                   admission_.queue_limit()});
      out.flush();
      return;
    }
    try {
      handle(request, out);
    } catch (...) {
      admission_.release();
      throw;
    }
    admission_.release();
  } catch (const caft::CheckError& error) {
    // The bare message: a failed check's expression and source path stay
    // on this side of the socket.
    write_campaign_error(out, error.message());
    out.flush();
  } catch (const std::exception& error) {
    write_campaign_error(out, error.what());
    out.flush();
  }
}

void CampaignServer::handle(const CampaignRequest& request,
                            std::ostream& out) {
  const CampaignSpec& spec = request.spec;
  std::uint64_t content_hash = 0;
  const std::shared_ptr<const Instance> instance =
      cache_.instance(request.instance_bytes, &content_hash);

  CampaignReport report;
  report.runs.reserve(spec.algorithms.size());
  for (const std::string& algorithm : spec.algorithms) {
    const auto cached =
        cache_.schedule(instance, content_hash, algorithm, spec.request);
    ScheduleResult result = cached->result;  // the run carries its own copy

    std::shared_ptr<const ContentCache::CachedTemplate> replay_template;
    if (options_.session.engine == caft::CampaignEngine::kIncremental)
      replay_template = cache_.replay_template(cached);

    SessionOptions session_options = options_.session;
    if (request.progress) {
      session_options.on_progress =
          [&out, &algorithm](const caft::CampaignProgress& progress) {
            write_progress_line(out, ProgressLine{algorithm,
                                                  progress.replays_done,
                                                  progress.replays_total,
                                                  progress.successes,
                                                  progress.ci_width});
            out.flush();
          };
    }
    const Session session(session_options);
    report.runs.push_back(session.evaluate_schedule(
        *instance, std::move(result), spec,
        replay_template ? replay_template->engine.get() : nullptr));
  }
  write_campaign_report(out, report);
  out.flush();
}

void CampaignServer::start() {
  CAFT_CHECK_MSG(listener_ == nullptr, "the campaign server already runs");
  stopping_.store(false, std::memory_order_release);
  listener_ =
      std::make_unique<ListenSocket>(options_.listen_address, options_.port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

std::uint16_t CampaignServer::port() const {
  CAFT_CHECK_MSG(listener_ != nullptr, "the campaign server is not running");
  return listener_->port();
}

void CampaignServer::accept_loop() {
  while (true) {
    std::unique_ptr<SocketStream> stream =
        listener_->accept_connection(stopping_);
    if (stream == nullptr) return;
    {
      const std::lock_guard<std::mutex> guard(connections_lock_);
      ++open_connections_;
    }
    std::thread([this, connection = std::move(stream)]() mutable {
      serve(*connection, *connection);
      connection.reset();  // flush + close before the count drops
      // Notify under the lock: once stop() sees the count at zero it may
      // destroy the server, so this detached thread must not touch the
      // condition variable after releasing the mutex.
      const std::lock_guard<std::mutex> guard(connections_lock_);
      --open_connections_;
      connections_done_.notify_all();
    }).detach();
  }
}

void CampaignServer::stop() {
  if (listener_ == nullptr) return;
  stopping_.store(true, std::memory_order_release);
  listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::unique_lock<std::mutex> guard(connections_lock_);
  connections_done_.wait(guard, [&] { return open_connections_ == 0; });
  guard.unlock();
  listener_.reset();
}

}  // namespace server
}  // namespace ftsched
