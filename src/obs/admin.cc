#include "obs/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "obs/flight.h"
#include "obs/health.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/prometheus.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/env_util.h"
#include "util/logging.h"

namespace ams::obs {

namespace {

std::atomic<bool (*)()> g_write_fault_hook{nullptr};

void SetSocketTimeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

const char* StatusLine(int code) {
  switch (code) {
    case 200:
      return "200 OK";
    case 400:
      return "400 Bad Request";
    case 404:
      return "404 Not Found";
    case 405:
      return "405 Method Not Allowed";
    case 431:
      return "431 Request Header Fields Too Large";
    case 503:
      return "503 Service Unavailable";
  }
  return "500 Internal Server Error";
}

/// Value of `key` in an HTTP query string ("a=1&b=2"), empty when absent.
std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    pos = amp + 1;
  }
  return "";
}

/// Strict non-negative integer parse for query parameters; returns
/// `fallback` on empty/garbage/overflow. Stricter than env::EnvInt on
/// purpose — query strings are remote input.
int ParseQueryInt(const std::string& value, int fallback) {
  if (value.empty() || value.size() > 9) return fallback;
  int out = 0;
  for (char c : value) {
    if (c < '0' || c > '9') return fallback;
    out = out * 10 + (c - '0');
  }
  return out;
}

std::string IndexBody() {
  return
      "ams admin plane\n"
      "  /metrics        Prometheus text exposition\n"
      "  /metrics.json   JSON metrics report\n"
      "  /healthz        SLO health (200 ok / 503 degraded|failing)\n"
      "  /tracez?n=N     last N completed spans (JSON)\n"
      "  /profilez?seconds=N  on-demand folded-stack profile\n"
      "  /varz           resolved AMS_* config + fingerprint (JSON)\n"
      "  /flightz        flight-recorder ring dump\n";
}

std::string HealthzBody(HealthState* state_out) {
  HealthMonitor* monitor = HealthMonitor::Global();
  if (monitor == nullptr) {
    *state_out = HealthState::kOk;
    return "ok (no AMS_SLO configured)\n";
  }
  const HealthState state =
      monitor->Evaluate(MetricsRegistry::Get().Snapshot());
  *state_out = state;
  std::ostringstream body;
  body << HealthStateName(state) << "\n";
  for (const SloResult& result : monitor->last_results()) {
    if (!result.violated) continue;
    body << "violated: " << result.target.spec
         << " observed=" << JsonNumber(result.observed)
         << " streak=" << result.streak << "\n";
  }
  return body.str();
}

std::string TracezBody(int limit) {
  std::vector<SpanRecord> spans = TraceBuffer::Get().Snapshot();
  const size_t n = std::min<size_t>(spans.size(), static_cast<size_t>(limit));
  std::ostringstream body;
  body << "{\"spans\":[";
  // Newest last; emit the trailing `n` records in recorded order.
  for (size_t i = spans.size() - n; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i != spans.size() - n) body << ",";
    body << "{\"name\":" << JsonEscape(span.name != nullptr ? span.name : "")
         << ",\"trace_id\":" << span.trace_id
         << ",\"span_id\":" << span.span_id
         << ",\"parent_id\":" << span.parent_id
         << ",\"thread\":" << span.thread_id << ",\"depth\":" << span.depth
         << ",\"start_us\":" << span.start_us
         << ",\"duration_us\":" << span.duration_us << "}";
  }
  body << "],\"count\":" << n << ",\"buffered\":" << spans.size() << "}\n";
  return body.str();
}

std::string ProfilezBody(int seconds, const std::atomic<bool>& stopping) {
  WallProfiler::Options options = WallProfiler::OptionsFromEnv();
  options.file_path.clear();  // response-only; never clobber AMS_PROFILE_FILE
  std::ostringstream folded;
  options.out = &folded;
  {
    WallProfiler profiler(options);
    // Sleep in short slices so Stop() of the admin plane does not have to
    // wait out a 10-second profile.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
    while (std::chrono::steady_clock::now() < deadline &&
           !stopping.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    profiler.Stop();
  }
  std::string body = folded.str();
  if (body.empty()) body = "(no samples)\n";
  return body;
}

std::string VarzBody() {
  const std::string binary = CurrentBinaryName();
  std::ostringstream body;
  body << "{\"binary\":" << JsonEscape(binary) << ",\"pid\":" << ::getpid()
       << ",\"config_fingerprint\":" << JsonEscape(ConfigFingerprint(binary))
       << ",\"env\":{";
  bool first = true;
  for (const std::string& key : RunLedgerEnvKeys()) {
    if (!first) body << ",";
    first = false;
    const char* value = std::getenv(key.c_str());
    body << JsonEscape(key) << ":"
         << (value != nullptr ? JsonEscape(value) : "null");
  }
  body << "},\"components\":{";
  first = true;
  for (const auto& [key, value] : LedgerComponents()) {
    if (!first) body << ",";
    first = false;
    body << JsonEscape(key) << ":" << JsonEscape(value);
  }
  body << "}}\n";
  return body.str();
}

std::string FlightzBody() {
  FlightRecorder& recorder = FlightRecorder::Get();
  std::ostringstream body;
  body << "ams-flight-recorder-v1 reason=live events=";
  const std::vector<FlightRecorder::Event> events = recorder.SnapshotEvents();
  body << events.size() << " total=" << recorder.total_recorded() << "\n";
  for (const FlightRecorder::Event& event : events) {
    body << "E " << event.seq << " " << event.ts_us << " " << event.tid << " "
         << FlightEventKindName(event.kind) << " " << event.a << " "
         << event.b << " " << event.text << "\n";
  }
  return body.str();
}

}  // namespace

AdminServerOptions AdminServerOptions::FromEnv() {
  AdminServerOptions options;
  options.port = env::EnvInt("AMS_ADMIN_PORT", -1, 0, 65535);
  options.max_inflight = env::EnvInt("AMS_ADMIN_MAX_INFLIGHT", 8, 1, 256);
  options.timeout_ms = env::EnvInt("AMS_ADMIN_TIMEOUT_MS", 2000, 10, 60000);
  return options;
}

/// Cached instrument pointers (same idiom as NetServer::Metrics): scrape
/// accounting must not pay a registry lookup per request.
class AdminServer::Metrics {
 public:
  Metrics()
      : requests_(&MetricsRegistry::Get().GetCounter("obs/admin_requests")),
        http_errors_(
            &MetricsRegistry::Get().GetCounter("obs/admin_http_errors")),
        rejected_(&MetricsRegistry::Get().GetCounter("obs/admin_rejected")),
        torn_(&MetricsRegistry::Get().GetCounter("obs/admin_torn_scrapes")) {}

  void OnResponse(int code) {
    requests_->Increment();
    if (code >= 400) http_errors_->Increment();
  }
  void OnRejected() { rejected_->Increment(); }
  void OnTorn() { torn_->Increment(); }

 private:
  Counter* requests_;
  Counter* http_errors_;
  Counter* rejected_;
  Counter* torn_;
};

AdminServer::AdminServer(AdminServerOptions options)
    : options_(std::move(options)), metrics_(std::make_unique<Metrics>()) {}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::SetWriteFaultHook(bool (*hook)()) {
  g_write_fault_hook.store(hook, std::memory_order_release);
}

Status AdminServer::Start() {
  if (started_) return Status::InvalidArgument("admin server already started");
  if (!options_.enabled()) {
    return Status::InvalidArgument("admin server disabled (port < 0)");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("admin socket: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string message = std::string("admin bind 127.0.0.1:") +
                                std::to_string(options_.port) + ": " +
                                std::strerror(errno);
    ::close(fd);
    return Status::IoError(message);
  }
  if (::listen(fd, options_.backlog) < 0) {
    const std::string message =
        std::string("admin listen: ") + std::strerror(errno);
    ::close(fd);
    return Status::IoError(message);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    const std::string message =
        std::string("admin getsockname: ") + std::strerror(errno);
    ::close(fd);
    return Status::IoError(message);
  }
  // /tracez needs a populated ring; respect an AMS_TRACE_FILE-sized buffer
  // if the exit reporter enabled one already.
  TraceBuffer& traces = TraceBuffer::Get();
  if (!traces.enabled()) {
    traces.SetCapacity(kAdminTraceCapacity);
    traces.SetEnabled(true);
  }
  listen_fd_ = fd;
  started_ = true;
  stopping_.store(false, std::memory_order_release);
  port_.store(static_cast<int>(ntohs(bound.sin_port)),
              std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  AMS_LOG(Info) << "admin plane listening on 127.0.0.1:" << port();
  return Status::OK();
}

void AdminServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  // shutdown() unblocks accept(); close alone does not on all kernels.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Hang up every in-flight connection so slow scrapers cannot extend
    // shutdown past one response write.
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return active_ == 0; });
  started_ = false;
  listen_fd_ = -1;
  port_.store(0, std::memory_order_release);
}

void AdminServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == ECONNABORTED) continue;
      break;  // listen socket is gone; Stop() owns the lifecycle
    }
    SetSocketTimeouts(fd, options_.timeout_ms);
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (active_ < options_.max_inflight) {
        ++active_;
        conn_fds_.push_back(fd);
        admitted = true;
      }
    }
    if (!admitted) {
      // Inline 503: the admin plane sheds rather than queues, mirroring the
      // serving front's admission policy. Drain briefly before close so the
      // RST from unread request bytes cannot discard the 503 out of the
      // peer's buffer; the timeout is cut short first — this runs on the
      // accept thread, which a slow peer must not be able to stall.
      metrics_->OnRejected();
      SendHttpResponse(fd, 503, "text/plain", "admin plane overloaded\n");
      ::shutdown(fd, SHUT_WR);
      SetSocketTimeouts(fd, 50);
      char drain[1024];
      size_t drained = 0;
      while (drained < kMaxRequestBytes) {
        const ssize_t n = ::recv(fd, drain, sizeof(drain), 0);
        if (n <= 0) break;
        drained += static_cast<size_t>(n);
      }
      ::close(fd);
      continue;
    }
    std::thread([this, fd] { HandleConnection(fd); }).detach();
  }
}

void AdminServer::HandleConnection(int fd) {
  std::string request;
  request.reserve(512);
  int error_code = 0;
  char buf[1024];
  // Read until the header terminator; a peer that shuts down its write side
  // early (EOF) sent a truncated request -> 400, an oversized header block
  // -> 431, a read timeout or transport error -> no response (the peer is
  // not listening).
  while (request.find("\r\n\r\n") == std::string::npos) {
    if (request.size() >= kMaxRequestBytes) {
      error_code = 431;
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      request.append(buf, static_cast<size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n == 0) {
      error_code = 400;  // EOF before the blank line
      break;
    } else {
      error_code = -1;  // timeout / reset: nothing to answer
      break;
    }
  }
  if (error_code == 0) {
    // Parse "GET <path>[?query] HTTP/1.x" from the first line only.
    const size_t line_end = request.find("\r\n");
    const std::string line = request.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        line.find(' ', sp2 + 1) != std::string::npos) {
      error_code = 400;
    } else {
      const std::string method = line.substr(0, sp1);
      std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::string version = line.substr(sp2 + 1);
      if (version.rfind("HTTP/1.", 0) != 0 || version.size() != 8 ||
          version[7] < '0' || version[7] > '9') {
        error_code = 400;
      } else if (method != "GET") {
        error_code = 405;
      } else if (target.empty() || target[0] != '/') {
        error_code = 400;
      } else {
        std::string query;
        const size_t qmark = target.find('?');
        if (qmark != std::string::npos) {
          query = target.substr(qmark + 1);
          target.resize(qmark);
        }
        std::string body;
        std::string content_type = "text/plain";
        const int code = Route(target, query, &body, &content_type);
        metrics_->OnResponse(code);
        SendHttpResponse(fd, code, content_type, body);
      }
    }
  }
  if (error_code > 0) {
    metrics_->OnResponse(error_code);
    SendHttpResponse(fd, error_code, "text/plain",
                     std::string(StatusLine(error_code)) + "\n");
  }
  if (error_code >= 0) {
    // Lingering close: when we answered (possibly mid-request, e.g. a 431
    // with the peer still sending), drain what the peer has in flight
    // before closing — close() with unread bytes RSTs the connection and
    // can discard the response out of the peer's receive buffer. Bounded:
    // the per-recv timeout caps a silent peer, the byte cap a flooding one.
    ::shutdown(fd, SHUT_WR);
    size_t drained = 0;
    while (drained < kMaxRequestBytes * 8) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        drained += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
  }
  // Close and notify under the lock: Stop() must never shut down an fd
  // number this close recycled, and once the lock is released Stop() may
  // observe active_ == 0 and the server be destroyed before a late notify.
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < conn_fds_.size(); ++i) {
    if (conn_fds_[i] == fd) {
      conn_fds_[i] = conn_fds_.back();
      conn_fds_.pop_back();
      break;
    }
  }
  ::close(fd);
  --active_;
  idle_cv_.notify_all();
}

int AdminServer::Route(const std::string& path, const std::string& query,
                       std::string* body, std::string* content_type) {
  if (path == "/") {
    *body = IndexBody();
    return 200;
  }
  if (path == "/metrics") {
    std::ostringstream out;
    WritePrometheusReport(MetricsRegistry::Get().Snapshot(), out);
    *body = out.str();
    *content_type = "text/plain; version=0.0.4";
    return 200;
  }
  if (path == "/metrics.json") {
    std::ostringstream out;
    WriteJsonReport(MetricsRegistry::Get().Snapshot(), out);
    out << "\n";
    *body = out.str();
    *content_type = "application/json";
    return 200;
  }
  if (path == "/healthz") {
    HealthState state = HealthState::kOk;
    *body = HealthzBody(&state);
    return state == HealthState::kOk ? 200 : 503;
  }
  if (path == "/tracez") {
    const int limit = std::min(
        ParseQueryInt(QueryParam(query, "n"), 256), 100000);
    *body = TracezBody(limit);
    *content_type = "application/json";
    return 200;
  }
  if (path == "/profilez") {
    const int seconds = std::min(
        std::max(ParseQueryInt(QueryParam(query, "seconds"), 1), 1), 10);
    *body = ProfilezBody(seconds, stopping_);
    return 200;
  }
  if (path == "/varz") {
    *body = VarzBody();
    *content_type = "application/json";
    return 200;
  }
  if (path == "/flightz") {
    if (!FlightRecorder::Get().enabled()) {
      *body = "flight recorder disabled (set AMS_FLIGHT_RECORDER)\n";
      return 404;
    }
    *body = FlightzBody();
    return 200;
  }
  *body = "not found\n";
  return 404;
}

void AdminServer::SendHttpResponse(int fd, int code,
                                   const std::string& content_type,
                                   const std::string& body) {
  std::string response = "HTTP/1.0 ";
  response += StatusLine(code);
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: ";
  response += std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  response += body;
  bool (*hook)() = g_write_fault_hook.load(std::memory_order_acquire);
  if (hook != nullptr && hook()) {
    // Injected torn scrape: half the bytes, then a hangup. Scrapers must
    // treat short reads as failed scrapes, not empty metrics.
    metrics_->OnTorn();
    FlightRecorder::Get().Record(FlightEventKind::kFault,
                                 "torn_scrape@admin");
    SendAll(fd, response.data(), response.size() / 2);
    ::shutdown(fd, SHUT_RDWR);
    return;
  }
  SendAll(fd, response.data(), response.size());
}

}  // namespace ams::obs
