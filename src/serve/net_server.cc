#include "serve/net_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "la/matrix.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/faults.h"
#include "serve/env_util.h"
#include "serve/framing.h"
#include "util/logging.h"

namespace ams::serve {

namespace {

/// How long slow_peer@net_read stalls a frame read. Long enough to expire
/// any test deadline of a few ms, short enough not to slow the suite.
constexpr int kSlowPeerStallMs = 50;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// obs::AdminServer's write-fault hook must be a plain function pointer
/// (obs cannot link robust); this free function is the bridge.
bool AdminScrapeFault() {
  return robust::FaultInjector::Get().OnAdminScrape();
}

}  // namespace

NetServerOptions NetServerOptions::FromEnv() {
  NetServerOptions options;
  options.port = internal::EnvInt("AMS_SERVE_PORT", options.port, 0, 65535);
  options.default_deadline_ms = internal::EnvInt(
      "AMS_SERVE_DEADLINE_MS", options.default_deadline_ms, 0, 1 << 30);
  return options;
}

class NetServer::Metrics {
 public:
  Metrics() {
    auto& reg = obs::MetricsRegistry::Get();
    accepted = &reg.GetCounter("serve/net_accepted");
    decode_errors = &reg.GetCounter("serve/net_decode_errors");
    connections = &reg.GetGauge("serve/net_connections");
    latency_ms = &reg.GetHistogram("serve/net_latency_ms",
                                   obs::Histogram::ExponentialBounds());
  }

  obs::Counter* accepted;
  obs::Counter* decode_errors;
  obs::Gauge* connections;
  obs::Histogram* latency_ms;
};

NetServer::Conn::~Conn() {
  ShutDown();
  ::close(fd);
}

void NetServer::Conn::ShutDown() {
  if (open.exchange(false, std::memory_order_acq_rel)) {
    ::shutdown(fd, SHUT_RDWR);
  }
}

NetServer::NetServer(InferenceServer* inference, NetServerOptions options)
    : inference_(inference),
      options_(options),
      metrics_(std::make_unique<Metrics>()) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("NetServer already started");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Status::IoError(
        "bind to 127.0.0.1:" + std::to_string(options_.port) +
        " failed: " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, options_.backlog) < 0) {
    const Status status =
        Status::IoError(std::string("listen failed: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_.store(ntohs(bound.sin_port), std::memory_order_release);

  listen_fd_ = fd;
  started_ = true;
  stopping_.store(false, std::memory_order_release);

  accept_thread_ = std::thread(&NetServer::AcceptLoop, this);

  AMS_LOG(Info) << "net server listening on 127.0.0.1:" << port()
                << " (queue=" << inference_->options().max_queue
                << ", batch=" << inference_->options().max_batch
                << ", default_deadline_ms=" << options_.default_deadline_ms
                << ")";

  // Live introspection plane (AMS_ADMIN_PORT). An admin-plane startup
  // failure (e.g. a taken fixed port) degrades to serving without
  // introspection, never to not serving.
  const obs::AdminServerOptions admin_options =
      obs::AdminServerOptions::FromEnv();
  if (admin_options.enabled()) {
    obs::AdminServer::SetWriteFaultHook(&AdminScrapeFault);
    admin_ = std::make_unique<obs::AdminServer>(admin_options);
    const Status admin_status = admin_->Start();
    if (!admin_status.ok()) {
      AMS_LOG(Warning) << "admin plane disabled: " << admin_status.ToString();
      admin_.reset();
    }
  }
  return Status::OK();
}

void NetServer::Stop() {
  if (!started_ || stopping_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }

  // 1. No new connections: unblock accept() and join the accept thread.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Stop reading: every reader sees EOF at its next read and exits, so
  //    nothing new is admitted. Write sides stay open: each connection is
  //    closed by its last owner — its reader or the callback of its last
  //    admitted request — after that request's response is written.
  std::unique_lock<std::mutex> lock(conns_mu_);
  for (Conn* conn : conns_) ::shutdown(conn->fd, SHUT_RD);
  conns_cv_.wait(lock, [&] { return conns_.empty(); });
  lock.unlock();

  ::close(listen_fd_);
  listen_fd_ = -1;
  started_ = false;
  // 3. The admin plane goes last: scrapes during the drain above still see
  //    live (and internally consistent) counters.
  if (admin_ != nullptr) {
    admin_->Stop();
    admin_.reset();
  }
  AMS_LOG(Info) << "net server stopped";
}

void NetServer::AcceptLoop() {
  auto& injector = robust::FaultInjector::Get();
  while (!stopping_.load(std::memory_order_acquire)) {
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno == EINTR) continue;
      // listen_fd_ shut down (Stop) or a transient accept error; either
      // way, re-check stopping_ and bail only on shutdown.
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == ECONNABORTED || errno == EMFILE || errno == ENFILE) {
        AMS_LOG(Warning) << "accept failed transiently: "
                         << std::strerror(errno);
        continue;
      }
      return;
    }
    metrics_->accepted->Increment();
    if (injector.OnAccept()) {
      // conn_drop@accept: hang up before reading anything. The client sees
      // EOF on its first read and must retry on a fresh connection.
      ::close(client_fd);
      continue;
    }
    // Responses are single small writes, often pipelined: never hold one
    // back for the client's delayed ACK (Nagle).
    const int one = 1;
    ::setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::shared_ptr<Conn> conn(new Conn(client_fd),
                               [this](Conn* c) { ReleaseConn(c); });
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn.get());
      metrics_->connections->Set(static_cast<double>(conns_.size()));
    }
    // Detached: lifetime is accounted for by conns_, which Stop waits on.
    std::thread(&NetServer::ReaderLoop, this, std::move(conn)).detach();
  }
}

void NetServer::ReleaseConn(Conn* conn) {
  // Close and notify under the lock: Stop must never shut down a recycled
  // fd number, and once the lock is released Stop may return and this
  // server be destroyed (this runs on a detached reader or the batcher).
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(std::find(conns_.begin(), conns_.end(), conn));
  delete conn;
  metrics_->connections->Set(static_cast<double>(conns_.size()));
  conns_cv_.notify_all();
}

void NetServer::ReaderLoop(std::shared_ptr<Conn> conn) {
  auto& injector = robust::FaultInjector::Get();
  for (;;) {
    // Phase 1: the length prefix. Blocking here is just an idle
    // connection; the frame's deadline clock starts when its first bytes
    // arrive.
    char prefix[4];
    if (!ReadExactBytes(conn->fd, prefix, sizeof(prefix)).ok()) break;
    const Clock::time_point arrival = Clock::now();

    const auto net_faults = injector.OnNetRead();
    if (net_faults.slow) {
      // slow_peer@net_read: the peer dribbles the frame in. The request's
      // deadline keeps running, so a tight one expires at admission.
      std::this_thread::sleep_for(std::chrono::milliseconds(kSlowPeerStallMs));
    }

    uint32_t raw_length = 0;
    std::memcpy(&raw_length, prefix, sizeof(raw_length));
    auto length = ParseFramePrefix(raw_length);
    if (!length.ok()) {
      // Hostile prefix: answer (best effort) and hang up — the byte stream
      // can't be re-synchronized.
      metrics_->decode_errors->Increment();
      SendResponse(conn, FrameType::kScoreResponse, 0, length.status(), {});
      break;
    }
    std::string body(length.ValueOrDie(), '\0');
    if (!ReadExactBytes(conn->fd, body.data(), body.size()).ok()) break;

    if (!HandleFrame(conn, std::move(body), arrival, net_faults.torn)) break;
  }
  // Dropping `conn` here closes the connection unless admitted requests
  // still hold it; then the last of their callbacks closes it.
}

bool NetServer::HandleFrame(const std::shared_ptr<Conn>& conn,
                            std::string body, Clock::time_point arrival,
                            bool torn) {
  if (torn) {
    // torn_frame@net_read: present the decoder with only half the frame,
    // as if the connection died mid-body. Must be rejected cleanly.
    body.resize(body.size() / 2);
  }
  auto decoded = DecodeFrame(body);
  if (!decoded.ok()) {
    metrics_->decode_errors->Increment();
    SendResponse(conn, FrameType::kScoreResponse, 0, decoded.status(), {});
    return false;  // framing is unrecoverable after garbage
  }
  Frame frame = decoded.MoveValue();

  if (frame.type == FrameType::kInfoRequest) {
    // Answered inline on the reader thread: shape discovery must work even
    // when the score queue is saturated.
    int rows = 0, cols = 0;
    if (inference_->model_shape(&rows, &cols)) {
      SendResponse(conn, FrameType::kInfoResponse, frame.request_id,
                   Status::OK(),
                   {static_cast<double>(rows), static_cast<double>(cols),
                    static_cast<double>(inference_->model_version())});
    } else {
      SendResponse(conn, FrameType::kInfoResponse, frame.request_id,
                   Status::FailedPrecondition("no model loaded"), {});
    }
    return true;
  }
  if (frame.type != FrameType::kScoreRequest) {
    metrics_->decode_errors->Increment();
    SendResponse(conn, FrameType::kScoreResponse, frame.request_id,
                 Status::InvalidArgument("server expects request frames"), {});
    return false;
  }

  const uint32_t deadline_ms =
      frame.deadline_ms != 0
          ? frame.deadline_ms
          : static_cast<uint32_t>(options_.default_deadline_ms);
  const Clock::time_point deadline =
      deadline_ms != 0 ? arrival + std::chrono::milliseconds(deadline_ms)
                       : Clock::time_point::max();
  la::Matrix features(static_cast<int>(frame.rows),
                      static_cast<int>(frame.cols));
  std::memcpy(features.data(), frame.payload.data(),
              frame.payload.size() * sizeof(double));
  // The request's root span: its queue/batch_form/compute phases parent
  // under it on the batcher thread.
  AMS_TRACE_SPAN("serve/request");
  inference_->Admit(
      std::move(features), deadline,
      [this, conn, request_id = frame.request_id,
       arrival](Result<std::vector<double>> scores) {
        FinishScoreRequest(conn, request_id, arrival, scores);
      });
  return true;
}

void NetServer::FinishScoreRequest(
    const std::shared_ptr<Conn>& conn, uint64_t request_id,
    Clock::time_point arrival, const Result<std::vector<double>>& scores) {
  static const std::vector<double> kNoValues;
  SendResponse(conn, FrameType::kScoreResponse, request_id, scores.status(),
               scores.ok() ? scores.ValueOrDie() : kNoValues);
  const double ms = MsSince(arrival);
  metrics_->latency_ms->Observe(ms);
  // Flight-recorder payload: a = request_id, b = latency_us; text = the
  // outcome — a crash dump ends with exactly what the server last answered.
  obs::FlightRecorder::Get().Record(obs::FlightEventKind::kServeOutcome,
                                    RequestOutcome(scores.status()),
                                    request_id,
                                    static_cast<uint64_t>(ms * 1000.0));
}

void NetServer::SendResponse(const std::shared_ptr<Conn>& conn,
                             FrameType type, uint64_t request_id,
                             const Status& status,
                             const std::vector<double>& values) {
  if (robust::FaultInjector::Get().OnNetWrite()) {
    // conn_drop@net_write: the connection dies instead of carrying the
    // response. The client observes EOF and retries on a new connection.
    conn->ShutDown();
    return;
  }
  const std::string wire = EncodeResponse(type, request_id, status, values);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->open.load(std::memory_order_acquire)) return;
  if (!WriteBytes(conn->fd, wire).ok()) conn->ShutDown();
}

}  // namespace ams::serve
