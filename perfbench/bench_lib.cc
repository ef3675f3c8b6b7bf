#include "bench_lib.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>

#include "serve/framing.h"
#include "util/status.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.count = samples.size();
  s.p50 = Quantile(samples, 0.50);
  s.p99 = Quantile(samples, 0.99);
  // Samples strictly beyond the 99th percentile: n * 0.01 of them.
  s.p99_supported = s.count >= 1000;
  return s;
}

StepSummary SummarizeStep(const std::vector<RequestRecord>& records,
                          double offered_rps) {
  StepSummary s;
  s.offered_rps = offered_rps;
  s.attempted = records.size();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> latency;
  std::vector<double> lag;
  latency.reserve(records.size());
  lag.reserve(records.size());
  for (const RequestRecord& r : records) {
    switch (r.outcome) {
      case Outcome::kOk: ++s.ok; break;
      case Outcome::kShed: ++s.shed; break;
      case Outcome::kDeadline: ++s.deadline; break;
      case Outcome::kError: ++s.error; break;
      case Outcome::kMismatch: ++s.mismatch; break;
      case Outcome::kPending:
      case Outcome::kTransport: ++s.transport; break;
    }
    latency.push_back(r.outcome == Outcome::kOk
                          ? (r.done_s - r.due_s) * 1e3
                          : inf);
    if (r.sent_s > 0.0) lag.push_back((r.sent_s - r.due_s) * 1e3);
  }
  s.latency_ms = Summarize(latency);
  if (!lag.empty()) {
    s.lag_p50_ms = Median(lag);
    s.lag_max_ms = *std::max_element(lag.begin(), lag.end());
  }
  const long quarter = static_cast<long>(latency.size() / 4);
  if (quarter > 0) {
    s.first_quarter_p50_ms = Median(
        std::vector<double>(latency.begin(), latency.begin() + quarter));
    s.last_quarter_p50_ms =
        Median(std::vector<double>(latency.end() - quarter, latency.end()));
  }
  return s;
}

double LatencyQuantile(const std::vector<RequestRecord>& records, double q) {
  std::vector<double> latency;
  latency.reserve(records.size());
  for (const RequestRecord& r : records) {
    latency.push_back(r.outcome == Outcome::kOk
                          ? (r.done_s - r.due_s) * 1e3
                          : std::numeric_limits<double>::infinity());
  }
  return Quantile(std::move(latency), q);
}

bool StepMeetsLimit(const std::vector<RequestRecord>& records,
                    const StepSummary& step, double q, double limit_ms) {
  return step.attempted > 0 && LatencyQuantile(records, q) <= limit_ms &&
         step.fail_ratio() <= 0.01 &&
         step.last_quarter_p50_ms - step.first_quarter_p50_ms <=
             limit_ms / 2;
}

uint64_t Digest(const std::vector<double>& values, uint64_t seed) {
  uint64_t h = seed;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size() * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

namespace {

using Clock = std::chrono::steady_clock;

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct Connection {
  int fd = -1;
  std::string inbox;  // bytes received but not yet framed
};

Outcome Classify(const ams::serve::Frame& frame,
                 const std::vector<double>& expected) {
  switch (static_cast<ams::StatusCode>(frame.status_code)) {
    case ams::StatusCode::kOk:
      return BitIdentical(frame.values, expected) ? Outcome::kOk
                                                  : Outcome::kMismatch;
    case ams::StatusCode::kUnavailable: return Outcome::kShed;
    case ams::StatusCode::kDeadlineExceeded: return Outcome::kDeadline;
    default: return Outcome::kError;
  }
}

}  // namespace

std::vector<RequestRecord> RunOpenLoop(int port, int connections,
                                       double rate_rps, double duration_s,
                                       const std::vector<RequestBlock>& blocks,
                                       double drain_s) {
  const size_t total =
      static_cast<size_t>(std::max(1.0, std::floor(rate_rps * duration_s)));
  std::vector<RequestRecord> records(total);
  for (size_t i = 0; i < total; ++i) {
    records[i].due_s = static_cast<double>(i) / rate_rps;
  }
  std::vector<Connection> conns(static_cast<size_t>(std::max(1, connections)));
  for (Connection& c : conns) c.fd = ConnectLoopback(port);

  size_t in_flight = 0;
  // Request ids are 1 + schedule index, so a response maps straight back.
  auto fail_connection = [&](size_t ci) {
    ::close(conns[ci].fd);
    conns[ci].fd = -1;
    for (size_t i = ci; i < total; i += conns.size()) {
      if (records[i].outcome == Outcome::kPending && records[i].sent_s > 0.0) {
        records[i].outcome = Outcome::kTransport;
        --in_flight;
      }
    }
  };

  const Clock::time_point start = Clock::now();
  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const double last_due = records.back().due_s;
  size_t next = 0;
  std::string wire = ams::serve::EncodeScoreRequest(
      1, 0, blocks[0].features);
  std::vector<pollfd> fds(conns.size());
  char buf[1 << 16];

  while (true) {
    double t = now_s();
    if (next < total && t >= records[next].due_s) {
      const size_t ci = next % conns.size();
      RequestRecord& r = records[next];
      r.sent_s = std::max(t, 1e-9);
      if (conns[ci].fd < 0 ||
          !ams::serve::WriteBytes(conns[ci].fd, wire).ok()) {
        r.outcome = Outcome::kTransport;
        if (conns[ci].fd >= 0) fail_connection(ci);
      } else {
        ++in_flight;
      }
      ++next;
      if (next < total) {
        wire = ams::serve::EncodeScoreRequest(
            next + 1, 0, blocks[next % blocks.size()].features);
      }
      continue;
    }
    if (next == total && (in_flight == 0 || t > last_due + drain_s)) break;

    const double wait_s =
        next < total ? records[next].due_s - t : last_due + drain_s - t;
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_s);
    timeout.tv_nsec = static_cast<long>((wait_s - timeout.tv_sec) * 1e9);
    for (size_t ci = 0; ci < conns.size(); ++ci) {
      fds[ci] = {conns[ci].fd, POLLIN, 0};
    }
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    for (size_t ci = 0; ci < conns.size(); ++ci) {
      if (fds[ci].fd < 0 || fds[ci].revents == 0) continue;
      const ssize_t n = ::recv(conns[ci].fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        fail_connection(ci);
        continue;
      }
      const double done = now_s();
      std::string& inbox = conns[ci].inbox;
      inbox.append(buf, static_cast<size_t>(n));
      size_t pos = 0;
      bool broken = false;
      while (inbox.size() - pos >= 4) {
        uint32_t len = 0;
        std::memcpy(&len, inbox.data() + pos, 4);
        if (!ams::serve::ParseFramePrefix(len).ok()) {
          broken = true;
          break;
        }
        if (inbox.size() - pos - 4 < len) break;
        auto frame = ams::serve::DecodeFrame(
            std::string_view(inbox).substr(pos + 4, len));
        pos += 4 + len;
        if (!frame.ok()) {
          broken = true;
          break;
        }
        const uint64_t id = frame.ValueOrDie().request_id;
        if (id == 0 || id > total ||
            records[id - 1].outcome != Outcome::kPending) {
          broken = true;
          break;
        }
        RequestRecord& r = records[id - 1];
        r.done_s = done;
        r.outcome =
            Classify(frame.ValueOrDie(), blocks[(id - 1) % blocks.size()]
                                             .expected);
        --in_flight;
      }
      inbox.erase(0, pos);
      if (broken) fail_connection(ci);
    }
  }
  for (Connection& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  for (RequestRecord& r : records) {
    if (r.outcome == Outcome::kPending) r.outcome = Outcome::kTransport;
  }
  return records;
}

}  // namespace perfbench
