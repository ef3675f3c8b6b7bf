// Deadline-aware network front for the in-process InferenceServer: a
// loopback TCP socket server speaking the AMSNET1 frame format
// (serve/framing.h), so the serving edge degrades gracefully under abuse
// instead of falling over.
//
// Architecture — one queue, two thread roles per scored request:
//
//   accept thread      accepts connections (conn_drop@accept injection
//                      point), sets TCP_NODELAY so a pipelined response is
//                      never held for the client's delayed ACK, and spawns
//                      one reader per connection
//   reader threads     read frames (torn_frame/slow_peer@net_read
//                      injection points) and decode them:
//                        * decode failure -> error response, connection
//                          closed (framing is unrecoverable after garbage)
//                        * info request -> answered inline
//                        * score request -> InferenceServer::Admit, with a
//                          completion callback that writes the response
//   batcher thread     (InferenceServer's) scores admitted requests and runs
//                      their callbacks
//
// Admission — deadline at arrival, the AMS_SERVE_QUEUE bound and shedding,
// the deadline re-check at batch formation — and the exactly-once
// serve/requests{outcome=ok|error|shed|deadline} accounting live in the
// one admission point, InferenceServer (serve/server.h):
//
//       read frame ──decode ok──> Admit
//         │                         │  queue full ──────> SHED (kUnavailable)
//         │ decode error            │  deadline expired ─> DEADLINE
//         v                         v
//       ERROR + close             queued ──formed──> deadline re-check
//                                                      │ expired ─> DEADLINE
//                                                      v
//                                                    scored -> OK | ERROR
//
// Shedding and deadlines are *answered*, not dropped: the client always
// gets a well-formed frame carrying a distinct Status (kUnavailable /
// kDeadlineExceeded), so a closed-loop client never hangs on an
// overloaded server. Every response write passes the conn_drop@net_write
// injection point.
//
// Observability (this layer): serve/net_connections gauge;
// serve/net_accepted and serve/net_decode_errors counters;
// serve/net_latency_ms histogram (frame arrival to response written, all
// outcomes); one serve_outcome flight-recorder event per score response.
#ifndef AMS_SERVE_NET_SERVER_H_
#define AMS_SERVE_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/admin.h"
#include "serve/framing.h"
#include "serve/server.h"
#include "util/status.h"

namespace ams::serve {

struct NetServerOptions {
  /// TCP port to bind on 127.0.0.1 (AMS_SERVE_PORT); 0 = kernel-assigned,
  /// read the result from NetServer::port().
  int port = 0;
  /// Deadline applied to requests that carry deadline_ms=0
  /// (AMS_SERVE_DEADLINE_MS); 0 = no default deadline.
  int default_deadline_ms = 0;
  /// listen(2) backlog.
  int backlog = 64;

  /// Reads AMS_SERVE_PORT / AMS_SERVE_DEADLINE_MS, keeping defaults for
  /// unset values and logging one AMS_LOG warning per unparseable one. The
  /// admission-queue bound (AMS_SERVE_QUEUE) is the InferenceServer's.
  static NetServerOptions FromEnv();
};

class NetServer {
 public:
  /// `inference` must outlive this object and have a model loaded before
  /// the first score request arrives (requests beforehand get clean
  /// FailedPrecondition responses).
  explicit NetServer(InferenceServer* inference,
                     NetServerOptions options = NetServerOptions::FromEnv());
  /// Stops (answers every admitted request, then closes every connection).
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the accept thread.
  Status Start();

  /// Graceful shutdown: stop accepting, stop reading (so nothing new is
  /// admitted), wait until every admitted request has been answered over
  /// its still-writable connection, then close them all. Idempotent.
  void Stop();

  /// The bound port (valid after Start), 0 before.
  int port() const { return port_.load(std::memory_order_acquire); }

  /// The admin plane's bound port; 0 when AMS_ADMIN_PORT is unset or the
  /// admin server failed to start (its failure never fails serving).
  int admin_port() const {
    return admin_ != nullptr ? admin_->port() : 0;
  }

  const NetServerOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One live connection, shared by its reader and the callbacks of its
  /// admitted requests. The fd is shut down (unblocking the reader and
  /// failing writers) wherever the connection dies, but only closed by the
  /// destructor — once the reader and every pending response let go — so
  /// an fd number can never be recycled under a concurrent writer, and a
  /// response admitted before Stop is still written.
  struct Conn {
    explicit Conn(int fd) : fd(fd) {}
    ~Conn();
    void ShutDown();  // idempotent

    const int fd;
    std::mutex write_mu;
    std::atomic<bool> open{true};
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Conn> conn);
  /// Deleter of every Conn: closes it and wakes Stop's drain.
  void ReleaseConn(Conn* conn);

  /// Handles one decoded frame on the reader thread: info requests are
  /// answered inline; score requests are admitted. Returns false when the
  /// connection must close.
  bool HandleFrame(const std::shared_ptr<Conn>& conn, std::string body,
                   Clock::time_point arrival, bool torn);

  /// Writes one response frame through the conn_drop@net_write injection
  /// point; a fired fault or a write error shuts the connection down.
  void SendResponse(const std::shared_ptr<Conn>& conn, FrameType type,
                    uint64_t request_id, const Status& status,
                    const std::vector<double>& values);

  /// Completion callback of a score request: writes the response and
  /// records its latency and flight-recorder outcome.
  void FinishScoreRequest(const std::shared_ptr<Conn>& conn,
                          uint64_t request_id, Clock::time_point arrival,
                          const Result<std::vector<double>>& scores);

  InferenceServer* const inference_;
  const NetServerOptions options_;

  std::atomic<int> port_{0};
  int listen_fd_ = -1;
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::condition_variable conns_cv_;  // Stop waits for conns_ to empty
  std::vector<Conn*> conns_;          // live connections

  std::thread accept_thread_;

  // Live introspection plane (AMS_ADMIN_PORT); started with the server,
  // stopped after the drain so operators can watch a shutdown.
  std::unique_ptr<obs::AdminServer> admin_;

  // Cached instruments (see class comment for the names).
  class Metrics;
  std::unique_ptr<Metrics> metrics_;
};

}  // namespace ams::serve

#endif  // AMS_SERVE_NET_SERVER_H_
