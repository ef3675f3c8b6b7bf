// perfbench_driver: runs one workload of the end-to-end benchmark against
// the repository's public APIs and prints one JSON result line on stdout.
//
//   perfbench_driver --workload=fit|sweep|serve --seed=N --seconds=S
//                    --trace=0|1 --server=<net_server_main> --workdir=<dir>
//
// Human-readable metrics (named as in README.md) and a host/build
// fingerprint go to stderr; the last stdout line is
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// With --trace=0 it holds the end-to-end metrics, with --trace=1 the
// per-layer ones. The traced run wraps the driver's calls into each
// module in benchmark-side spans and writes them to
// <workdir>/trace-<workload>-<seed>.json (Chrome trace format) at exit.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ams/ams_model.h"
#include "bench_lib.h"
#include "data/cv.h"
#include "data/features.h"
#include "data/generator.h"
#include "gnn/gat.h"
#include "graph/company_graph.h"
#include "la/gemm_kernels.h"
#include "la/matrix.h"
#include "metrics/metrics.h"
#include "models/ams_regressor.h"
#include "models/experiment.h"
#include "models/zoo.h"
#include "nn/dense.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "par/thread_pool.h"
#include "robust/atomic_io.h"
#include "serve/artifact.h"
#include "serve/framing.h"
#include "serve/net_client.h"
#include "serve/server.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/string_util.h"

extern char** environ;

namespace {

using namespace ams;
using perfbench::Median;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The serving limit behind max_rps: p90 <= 20 ms. On a 4-vCPU VM, host
// stalls and held-back pipelined responses (README.md) put 1-3% of
// requests above 20 ms at any rate, so a p99 limit left max_rps undefined
// on some runs; p90 still rises sharply at the knee.
constexpr double kLatencyLimitMs = 20.0;
constexpr double kLimitQuantile = 0.90;
// The loaded fixed rate of the serve workload (see RunServe).
constexpr double kLoadedRps = 250.0;
// The program's own random seed (initialization, dropout, ensemble and HPO
// draws) is fixed, as the paper pipeline fixes it; --seed varies only the
// generated market. Runs of different seeds then differ in their inputs,
// not in the models they configure, which keeps the sweep's work per run
// from swinging with the seed's HPO draws.
constexpr uint64_t kModelSeed = 42;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string server;
  std::string workdir;
};

// ------------------------------------------------------------------------
// Benchmark-side spans: name, start, duration and parent, kept in memory
// and written out at exit. Disabled spans cost one branch.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
      if (tracer_ == nullptr || !tracer_->enabled_) return;
      index_ = tracer_->Open(std::move(name));
    }
    ~Scope() {
      if (index_ >= 0) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  bool enabled() const { return enabled_; }

  /// Records a finished interval measured elsewhere (per-request spans of
  /// the load generator, reconstructed from its timestamps).
  void Record(const std::string& name, Clock::time_point start, double ms) {
    if (!enabled_) return;
    spans_.push_back({name, Us(start), ms * 1e3,
                      stack_.empty() ? -1 : stack_.back()});
  }

  /// Median duration (ms) of every span called `name`; NaN when none.
  double MedianMs(const std::string& name) const {
    std::vector<double> ms;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) ms.push_back(s.dur_us / 1e3);
    }
    return Median(ms);
  }

  void WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
          << ",\"dur\":" << s.dur_us << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct SpanRecord {
    std::string name;
    double start_us;
    double dur_us;
    int parent;
  };

  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  int Open(std::string name) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), Us(Clock::now()), 0.0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(index);
    return index;
  }
  void Close(int index) {
    spans_[index].dur_us = Us(Clock::now()) - spans_[index].start_us;
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

// ------------------------------------------------------------------------
// The result line.

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void Attempt(size_t n = 1) { attempted_ += n; }
  /// A failed operation; `mismatch` also marks the run's outputs incorrect.
  void Fail(const std::string& why, bool mismatch, size_t n = 1) {
    failed_ += n;
    if (mismatch) correct_ = false;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  void Incorrect(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  bool correct() const { return correct_; }

  /// Prints the JSON line; non-finite values make the run incorrect.
  void Print() {
    for (const auto& [name, vu] : metrics_) {
      if (!std::isfinite(vu.first)) Incorrect(name + " is not finite");
    }
    std::string out = "{\"correct\": ";
    out += correct_ && attempted_ > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : metrics_) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(vu.first) ? vu.first : -1.0);
      out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
             ", \"unit\": \"" + vu.second + "\"}";
      first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  bool correct_ = true;
};

void Say(const std::string& name, double value, const std::string& unit,
         const std::string& note = "") {
  std::fprintf(stderr, "  %-22s %14.4f %-6s %s\n", name.c_str(), value,
               unit.c_str(), note.c_str());
}

// ------------------------------------------------------------------------
// Host and build fingerprint.

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Fingerprint() {
  const std::string simd = la::internal::ActiveGemmKernels().name;
  std::ostringstream out;
  out << "{\"cpu\":\"" << CpuModel() << "\",\"nproc\":"
      << std::thread::hardware_concurrency() << ",\"build_type\":\""
      << PERFBENCH_BUILD_TYPE << "\",\"simd\":\"" << simd
      << "\",\"pool_size\":" << par::DefaultPool().parallelism() << "}";
  return out.str();
}

/// Peak resident set (VmHWM) of `pid` in MB; NaN when unreadable.
double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Get().GetCounter(name).value();
}

/// Sum of par/worker_busy_us over every pool of this process, in us.
double ParBusyUs() {
  double total = 0.0;
  for (const auto& c : obs::MetricsRegistry::Get().Snapshot().counters) {
    if (c.base == "par/worker_busy_us") total += static_cast<double>(c.value);
  }
  return total;
}

// ------------------------------------------------------------------------
// Inputs: one cross-validation fold of a generated market, built exactly as
// the paper pipeline (examples/quickstart.cc) builds it.

struct Fold {
  data::Panel panel;
  data::CvFold fold;
  data::Dataset train, valid, test;
  // Every quarter of the fold as its own standardized block.
  std::vector<data::Dataset> quarter_blocks;
  models::FitContext Context(uint64_t seed) const {
    models::FitContext context;
    context.train = &train;
    context.valid = &valid;
    context.panel = &panel;
    context.last_train_quarter = fold.valid_quarter - 1;
    context.seed = seed;
    return context;
  }
};

std::unique_ptr<Fold> BuildFold(data::DatasetProfile profile, uint64_t seed,
                                Tracer* tracer) {
  auto f = std::make_unique<Fold>();
  {
    Tracer::Scope span(tracer, "data.generate");
    f->panel = data::GenerateMarket(
                   data::GeneratorConfig::Defaults(profile, seed))
                   .MoveValue();
  }
  Tracer::Scope span(tracer, "data.features");
  f->fold = data::TimeSeriesCvFolds(f->panel.num_quarters,
                                    data::DefaultCvOptions(profile))
                .MoveValue()
                .back();
  data::FeatureBuilder builder(&f->panel, data::FeatureOptions{});
  f->train = builder.Build(f->fold.train_quarters).MoveValue();
  f->valid = builder.Build({f->fold.valid_quarter}).MoveValue();
  f->test = builder.Build({f->fold.test_quarter}).MoveValue();
  const data::Standardizer standardizer = data::Standardizer::Fit(f->train);
  standardizer.Apply(&f->train);
  standardizer.Apply(&f->valid);
  standardizer.Apply(&f->test);
  std::vector<int> quarters = f->fold.train_quarters;
  quarters.push_back(f->fold.valid_quarter);
  quarters.push_back(f->fold.test_quarter);
  for (int q : quarters) {
    data::Dataset block = builder.Build({q}).MoveValue();
    standardizer.Apply(&block);
    f->quarter_blocks.push_back(std::move(block));
  }
  return f;
}

graph::CompanyGraph BuildGraph(const Fold& f) {
  graph::CorrelationGraphOptions options;
  options.top_k = 5;
  return graph::CompanyGraph::BuildFromRevenue(
             f.panel.RevenueHistories(f.fold.valid_quarter - 1), options)
      .MoveValue();
}

/// The one-quarter dataset InferenceServer builds around a request block.
data::Dataset ServingDataset(const la::Matrix& block) {
  data::Dataset d;
  d.x = block;
  d.y.assign(block.rows(), 0.0);
  d.meta.resize(block.rows());
  for (int i = 0; i < block.rows(); ++i) d.meta[i].company = i;
  return d;
}

/// Set-up timing: `once(i)` is timed at least `min_repeats` times and until
/// `min_total_s` seconds have gone into it, so a set-up of a millisecond is
/// timed hundreds of times and one of seconds three times. The times are
/// appended to `samples`.
template <typename F>
void TimeSetup(int min_repeats, double min_total_s,
               std::vector<double>* samples, F once) {
  double total = 0.0;
  for (int i = 0; i < min_repeats || total < min_total_s; ++i) {
    const auto t0 = Clock::now();
    once(i);
    samples->push_back(SecondsSince(t0));
    total += samples->back();
  }
}

template <typename F>
double MedianSetup(int min_repeats, double min_total_s, F once) {
  std::vector<double> s;
  TimeSetup(min_repeats, min_total_s, &s, once);
  return Median(s);
}

/// Times every AMS training epoch from outside the program: a thread
/// polls the exported ams/train/epochs counter every 0.5 ms and records
/// the interval between increments.
class EpochSampler {
 public:
  EpochSampler() : thread_([this] { Loop(); }) {}
  ~EpochSampler() { Stop(); }
  EpochSampler(const EpochSampler&) = delete;
  EpochSampler& operator=(const EpochSampler&) = delete;

  /// Per-epoch intervals (ms) seen so far; call after the fits, from the
  /// owning thread, once the sampler is stopped.
  std::vector<double> Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    return epoch_ms_;
  }

 private:
  void Loop() {
    obs::Counter& epochs =
        obs::MetricsRegistry::Get().GetCounter("ams/train/epochs");
    uint64_t last_value = epochs.value();
    auto last_time = Clock::now();
    while (!stop_) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      const uint64_t v = epochs.value();
      if (v == last_value) continue;
      const auto now = Clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(now - last_time).count();
      for (uint64_t i = last_value; i < v; ++i) {
        epoch_ms_.push_back(ms / static_cast<double>(v - last_value));
      }
      last_value = v;
      last_time = now;
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<double> epoch_ms_;
  std::thread thread_;
};

// ------------------------------------------------------------------------
// Output checks: a digest of the predictions must repeat within a run and
// across runs of one seed on one build. The cross-run reference lives in
// the work directory, keyed by the driver binary's own digest.

uint64_t SelfDigest() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void CheckDigest(const Args& args, uint64_t digest, Report* report) {
  char name[128];
  std::snprintf(name, sizeof(name), "digest-%s-%llu-%016llx.txt",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(SelfDigest()));
  const std::string path = args.workdir + "/" + name;
  std::ifstream in(path);
  unsigned long long stored = 0;
  if (in >> std::hex >> stored) {
    if (stored != digest) {
      report->Fail("prediction digest differs from an earlier run of seed " +
                       std::to_string(args.seed),
                   /*mismatch=*/true);
    }
    return;
  }
  std::ofstream(path) << std::hex << digest << "\n";
}

// ------------------------------------------------------------------------
// AMSNET1 server process.

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Starts `binary --artifact=<artifact>` with default serving knobs and
  /// the admin plane on a kernel-assigned port, stderr appended to `log`;
  /// waits for readiness.
  Status Start(const std::string& binary, const std::string& artifact,
               const std::string& log) {
    Stop();
    port_ = admin_port_ = rows_ = cols_ = 0;
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string kv = *e;
      if (kv.rfind("AMS_SERVE_", 0) == 0 || kv.rfind("AMS_ADMIN_", 0) == 0 ||
          kv.rfind("AMS_FAULTS", 0) == 0 || kv.rfind("AMS_TELEMETRY", 0) == 0 ||
          kv.rfind("AMS_TRACE", 0) == 0 || kv.rfind("AMS_SLO", 0) == 0) {
        continue;
      }
      env.push_back(kv);
    }
    env.push_back("AMS_ADMIN_PORT=0");
    std::vector<char*> envp;
    for (std::string& kv : env) envp.push_back(kv.data());
    envp.push_back(nullptr);
    std::string arg0 = binary;
    std::string arg1 = "--artifact=" + artifact;
    char* argv[] = {arg0.data(), arg1.data(), nullptr};

    int out[2];
    if (::pipe(out) != 0) return Status::IoError("pipe");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv, envp.data());
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    if (rc != 0) {
      ::close(out[0]);
      pid_ = -1;
      return Status::IoError("cannot start " + binary);
    }
    // Readiness: "AMSNET listening port=P ..." then "AMSADMIN port=A".
    std::string text;
    const auto t0 = Clock::now();
    while (admin_port_ == 0 && SecondsSince(t0) < 60.0) {
      pollfd p{out[0], POLLIN, 0};
      if (::poll(&p, 1, 200) <= 0) continue;
      char buf[512];
      const ssize_t n = ::read(out[0], buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<size_t>(n));
      std::sscanf(text.c_str(), "AMSNET listening port=%d rows=%d cols=%d",
                  &port_, &rows_, &cols_);
      const size_t admin = text.find("AMSADMIN port=");
      if (admin != std::string::npos) {
        std::sscanf(text.c_str() + admin, "AMSADMIN port=%d", &admin_port_);
      }
    }
    ::close(out[0]);
    if (port_ == 0 || admin_port_ == 0) {
      Stop();
      return Status::IoError("server did not become ready");
    }
    return Status::OK();
  }

  /// SIGTERM (clean drain), escalating to SIGKILL; always reaps.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 200; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  int admin_port() const { return admin_port_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int admin_port_ = 0;
  int rows_ = 0;
  int cols_ = 0;
};

/// GET /metrics.json from the admin plane.
Result<obs::json::Value> ScrapeMetrics(int admin_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(admin_port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    return Status::IoError("admin connect");
  }
  const std::string request = "GET /metrics.json HTTP/1.0\r\n\r\n";
  Status sent = serve::WriteBytes(fd, request);
  std::string response;
  char buf[8192];
  ssize_t n = 0;
  while (sent.ok() && (n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) return Status::IoError("admin response");
  return obs::json::Parse(response.substr(body + 4));
}

/// The numbers the benchmark reads from one /metrics.json scrape. Layer
/// times are histogram sum/count pairs (never bucket quantiles, which
/// saturate at the top finite bucket).
struct ServerCounters {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> hist;  // sum, count
  double par_busy_us = 0.0;
  double pool_size = 0.0;

  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
  /// Mean of histogram `name` over the interval since `before`.
  double MeanSince(const ServerCounters& before,
                   const std::string& name) const {
    auto a = hist.find(name);
    auto b = before.hist.find(name);
    const double sum = (a == hist.end() ? 0.0 : a->second.first) -
                       (b == before.hist.end() ? 0.0 : b->second.first);
    const double count = (a == hist.end() ? 0.0 : a->second.second) -
                         (b == before.hist.end() ? 0.0 : b->second.second);
    return count > 0 ? sum / count : 0.0;
  }
};

Result<ServerCounters> ReadServerCounters(int admin_port) {
  AMS_ASSIGN_OR_RETURN(obs::json::Value root, ScrapeMetrics(admin_port));
  ServerCounters out;
  if (const auto* counters = root.Find("counters")) {
    for (const auto& [name, v] : counters->object) {
      out.counters[name] = v.number;
      if (name.rfind("par/worker_busy_us", 0) == 0) out.par_busy_us += v.number;
    }
  }
  if (const auto* gauges = root.Find("gauges")) {
    for (const auto& [name, v] : gauges->object) {
      if (name.rfind("par/pool_size", 0) == 0) {
        out.pool_size = std::max(out.pool_size, v.number);
      }
    }
  }
  if (const auto* hists = root.Find("histograms")) {
    for (const auto& [name, v] : hists->object) {
      const auto* sum = v.Find("sum");
      const auto* count = v.Find("count");
      if (sum != nullptr && count != nullptr) {
        out.hist[name] = {sum->number, count->number};
      }
    }
  }
  return out;
}

/// Request blocks of the serving traffic with their reference scores: a
/// direct AmsModel::Predict of each block on the served artifact.
std::vector<perfbench::RequestBlock> ReferenceBlocks(
    const Fold& f, const std::string& artifact) {
  core::AmsModel model = serve::LoadAmsArtifact(artifact).MoveValue();
  std::vector<perfbench::RequestBlock> blocks;
  for (const data::Dataset& q : f.quarter_blocks) {
    perfbench::RequestBlock b;
    b.features = q.x;
    b.expected = model.Predict(ServingDataset(q.x)).MoveValue();
    blocks.push_back(std::move(b));
  }
  return blocks;
}

/// One open-loop step with the server-side view of the same interval.
struct Step {
  perfbench::StepSummary client;
  ServerCounters before, after;
  std::vector<perfbench::RequestRecord> records;
  Clock::time_point start;
};

Step RunStep(const ServerProcess& server,
             const std::vector<perfbench::RequestBlock>& blocks, double rps,
             double seconds, int connections) {
  Step step;
  step.before = ReadServerCounters(server.admin_port()).MoveValue();
  step.start = Clock::now();
  step.records = perfbench::RunOpenLoop(server.port(), connections, rps,
                                        seconds, blocks);
  step.after = ReadServerCounters(server.admin_port()).MoveValue();
  step.client = perfbench::SummarizeStep(step.records, rps);
  return step;
}

/// Client outcome counts must equal the server's serve/requests counters
/// over the step; OK responses must be bit-identical to the reference.
void CheckStep(const Step& step, const std::string& label, Report* report) {
  const perfbench::StepSummary& c = step.client;
  if (c.mismatch > 0) {
    report->Incorrect(label + ": " + std::to_string(c.mismatch) +
                      " responses differ from AmsModel::Predict");
  }
  const std::pair<const char*, size_t> outcomes[] = {
      {"ok", c.ok + c.mismatch},
      {"shed", c.shed},
      {"deadline", c.deadline},
      {"error", c.error}};
  for (const auto& [outcome, client_count] : outcomes) {
    const std::string name =
        std::string("serve/requests{outcome=\"") + outcome + "\"}";
    const double server_count =
        step.after.Counter(name) - step.before.Counter(name);
    // A transport failure may or may not have reached the server.
    const double slack = static_cast<double>(c.transport);
    if (std::abs(server_count - static_cast<double>(client_count)) > slack) {
      report->Incorrect(label + ": server counted " +
                        std::to_string(static_cast<long>(server_count)) +
                        " " + outcome + ", client saw " +
                        std::to_string(client_count));
    }
  }
}

void SayStep(const std::string& label, const perfbench::StepSummary& s) {
  std::fprintf(stderr,
               "  step %-8s offered %7.1f rps  n=%zu ok=%zu shed=%zu "
               "deadline=%zu error=%zu transport=%zu mismatch=%zu  "
               "p50=%.3f ms p99=%.3f ms%s  lag p50=%.3f max=%.3f ms  "
               "quarter p50 %.3f -> %.3f ms\n",
               label.c_str(), s.offered_rps, s.attempted, s.ok, s.shed,
               s.deadline, s.error, s.transport, s.mismatch, s.latency_ms.p50,
               s.latency_ms.p99, s.latency_ms.p99_supported ? "" : " (n<1000)",
               s.lag_p50_ms, s.lag_max_ms, s.first_quarter_p50_ms,
               s.last_quarter_p50_ms);
}

/// Closed-loop capacity estimate: `clients` threads, each scoring as fast
/// as replies come back, for `seconds`.
double ClosedLoopRps(int port, int clients, double seconds,
                     const std::vector<perfbench::RequestBlock>& blocks,
                     Report* report) {
  std::atomic<long> done{0};
  std::atomic<long> bad{0};
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::NetClient client(port);
      for (size_t i = c; SecondsSince(t0) < seconds; i += clients) {
        const auto& b = blocks[i % blocks.size()];
        auto scores = client.Score(b.features);
        if (scores.ok() &&
            perfbench::BitIdentical(scores.ValueOrDie(), b.expected)) {
          ++done;
        } else {
          ++bad;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (bad > 0) {
    report->Incorrect(std::to_string(bad.load()) +
                      " closed-loop responses failed or differ");
  }
  return static_cast<double>(done.load()) / SecondsSince(t0);
}

int Connections() {
  return std::max(1, std::min(4, static_cast<int>(
                                     std::thread::hardware_concurrency())));
}

// ------------------------------------------------------------------------
// Layer probes (traced runs only): short replays of single layers through
// their public APIs, on the workload's own fold, at paper-default shapes.

struct MemberFit {
  std::unique_ptr<core::AmsModel> model;
  int epochs = 0;
  double ms = 0.0;
};

MemberFit FitMember(const Fold& f, Tracer* tracer, Report* report) {
  core::AmsConfig config;
  config.seed = kModelSeed;
  MemberFit m;
  m.model = std::make_unique<core::AmsModel>(config);
  graph::CompanyGraph g = [&] {
    Tracer::Scope span(tracer, "graph.build");
    return BuildGraph(f);
  }();
  const auto t0 = Clock::now();
  Status st;
  {
    Tracer::Scope span(tracer, "ams.fit_member");
    st = m.model->Fit(f.train, f.valid, g);
  }
  m.ms = SecondsSince(t0) * 1e3;
  m.epochs = m.model->epochs_run();
  report->Attempt();
  if (!st.ok()) report->Fail("AMS member fit: " + st.ToString(), false);
  return m;
}

template <typename F>
void Repeat(Tracer* tracer, const std::string& name, int n, F body) {
  for (int i = 0; i < n; ++i) {
    Tracer::Scope span(tracer, name);
    body();
  }
}

void ProbeLayers(const Fold& f, const Args& args, Tracer* tracer,
                 Report* report) {
  Tracer& t = *tracer;
  // data / graph replays.
  for (int i = 0; i < 3; ++i) {
    BuildFold(f.panel.profile, args.seed, tracer);
  }
  for (int i = 0; i < 4; ++i) {
    Tracer::Scope span(tracer, "graph.build");
    BuildGraph(f);
  }
  report->Set("data.generate_ms", t.MedianMs("data.generate"), "ms");
  report->Set("data.features_ms", t.MedianMs("data.features"), "ms");
  report->Set("graph.build_ms", t.MedianMs("graph.build"), "ms");

  // One paper-default member: fit time, epochs, la pool behaviour.
  const double hits0 = CounterValue("la/pool_hits");
  const double miss0 = CounterValue("la/pool_misses");
  MemberFit m = FitMember(f, tracer, report);
  const double hits = CounterValue("la/pool_hits") - hits0;
  const double misses = CounterValue("la/pool_misses") - miss0;
  report->Set("ams.fit_member_ms", m.ms, "ms");
  report->Set("ams.epochs", m.epochs, "count");
  report->Set("la.pool_hits_per_epoch", hits / std::max(1, m.epochs),
              "count");
  report->Set("la.pool_miss_ratio",
              hits + misses > 0 ? misses / (hits + misses) : 0.0, "ratio");

  const la::Matrix& block = f.quarter_blocks.back().x;
  const data::Dataset serving = ServingDataset(block);
  Repeat(tracer, "ams.predict", 20,
         [&] { (void)m.model->Predict(serving); });
  report->Set("ams.predict_ms", t.MedianMs("ams.predict"), "ms");

  // One AMS training step rebuilt from the layer APIs at AmsConfig{}
  // shapes: node transform {48, 32}, GAT (4 heads x 16, out 16), generator
  // {48} -> F+1, squared-error loss, backward, Adam.
  {
    const core::AmsConfig cfg;
    const int n = block.rows();
    const int features = block.cols();
    Rng rng(kModelSeed);
    nn::Dense t1(features, cfg.node_transform_layers[0], nn::Activation::kRelu,
                 &rng);
    nn::Dense t2(cfg.node_transform_layers[0], cfg.node_transform_layers[1],
                 nn::Activation::kRelu, &rng);
    gnn::GatNetwork gat(cfg.node_transform_layers[1], cfg.gat, &rng);
    nn::Mlp generator(cfg.gat.out_features, cfg.generator_hidden,
                      features + 1, nn::Activation::kRelu, &rng);
    std::vector<tensor::Tensor> params;
    for (const auto& group : {t1.Parameters(), t2.Parameters(),
                              gat.Parameters(), generator.Parameters()}) {
      params.insert(params.end(), group.begin(), group.end());
    }
    optim::Adam adam(params, cfg.learning_rate);
    const la::Matrix mask = BuildGraph(f).AttentionMask();
    const tensor::Tensor x = tensor::Tensor::Constant(block);
    const tensor::Tensor xa = tensor::Tensor::Constant(
        la::Matrix::HStack(block, la::Matrix::Ones(n, 1)));
    const tensor::Tensor y =
        tensor::Tensor::Constant(la::Matrix::ColumnVector(
            std::vector<double>(f.quarter_blocks.back().y)));
    for (int i = 0; i < 30; ++i) {
      tensor::Tensor h, g, coef, loss;
      {
        Tracer::Scope span(tracer, "nn.mlp_forward");
        h = t2.Forward(t1.Forward(x));
      }
      {
        Tracer::Scope span(tracer, "gnn.gat_forward");
        g = gat.Forward(h, mask, /*training=*/true, &rng);
      }
      {
        Tracer::Scope span(tracer, "nn.mlp_forward");
        coef = generator.Forward(g, /*training=*/true, &rng);
      }
      loss = tensor::SumSquares(tensor::Sub(tensor::RowDot(xa, coef), y));
      for (auto& p : params) p.ZeroGrad();
      {
        Tracer::Scope span(tracer, "tensor.backward");
        tensor::Backward(loss);
      }
      {
        Tracer::Scope span(tracer, "optim.step");
        adam.Step();
      }
    }
    // Two nn.mlp_forward spans per step: report their per-step sum.
    report->Set("nn.mlp_forward_ms", 2.0 * t.MedianMs("nn.mlp_forward"), "ms");
    report->Set("gnn.gat_forward_ms", t.MedianMs("gnn.gat_forward"), "ms");
    report->Set("tensor.backward_ms", t.MedianMs("tensor.backward"), "ms");
    report->Set("optim.step_ms", t.MedianMs("optim.step"), "ms");

    // The step's GEMM shapes, forward: X*W1, H1*W2, per-head H*Wg, the
    // attention-weighted aggregation, and the generator's two layers.
    const la::Matrix w1(features, 48, 0.01), w2(48, 32, 0.01),
        wg(32, 16, 0.01), att(n, n, 1.0 / n), wm(16, 48, 0.01),
        wo(48, features + 1, 0.01);
    Repeat(tracer, "la.matmul", 50, [&] {
      const la::Matrix h1 = block.MatMul(w1);
      const la::Matrix h2 = h1.MatMul(w2);
      for (int head = 0; head < cfg.gat.num_heads; ++head) {
        att.MatMul(h2.MatMul(wg));
      }
      h2.MatMul(wg).MatMul(la::Matrix(16, 16, 0.01));
      la::Matrix(n, 16, 0.5).MatMul(wm).MatMul(wo);
    });
    report->Set("la.matmul_ms", t.MedianMs("la.matmul"), "ms");
  }

  // Wire format of one request block.
  std::string wire;
  Repeat(tracer, "framing.encode", 200,
         [&] { wire = serve::EncodeScoreRequest(7, 0, block); });
  const std::string_view body = std::string_view(wire).substr(4);
  bool decoded = true;
  Repeat(tracer, "framing.decode", 200,
         [&] { decoded = decoded && serve::DecodeFrame(body).ok(); });
  if (!decoded) report->Incorrect("request frame does not decode");
  Repeat(tracer, "robust.crc", 200, [&] {
    robust::Crc32(body.data(), body.size() - 4);
  });
  report->Set("framing.encode_us", 1e3 * t.MedianMs("framing.encode"), "us");
  report->Set("framing.decode_us", 1e3 * t.MedianMs("framing.decode"), "us");
  report->Set("framing.request_bytes", static_cast<double>(wire.size()),
              "bytes");
  report->Set("robust.crc_us", 1e3 * t.MedianMs("robust.crc"), "us");

  // In-process scoring through the batcher.
  {
    const std::vector<double> expected =
        m.model->Predict(serving).MoveValue();
    serve::InferenceServer server;
    server.LoadModel(std::move(*m.model)).Abort("load model");
    bool same = true;
    Repeat(tracer, "serve.score", 20, [&] {
      auto scores = server.Score(block);
      same = same && scores.ok() &&
             perfbench::BitIdentical(scores.ValueOrDie(), expected);
    });
    if (!same) report->Incorrect("InferenceServer::Score differs from Predict");
    report->Set("serve.score_ms", t.MedianMs("serve.score"), "ms");
  }

  // One fit of every learned zoo family on this fold: AMS as the paper
  // configures it (the fit workload's ensemble), every other family with
  // its first random-search draw. The slowest bounds a fold of the sweep.
  const models::FitContext context = f.Context(kModelSeed);
  double critical = 0.0;
  const std::vector<std::string> learned = models::LearnedModelNames();
  for (const models::ModelSpec& spec :
       models::BuildModelZoo(f.panel.num_alt_channels)) {
    if (std::find(learned.begin(), learned.end(), spec.name) ==
        learned.end()) {
      continue;
    }
    Rng rng(kModelSeed);
    std::unique_ptr<models::Regressor> model =
        spec.name == "AMS" ? std::make_unique<models::AmsRegressor>(
                                 core::AmsConfig{}, /*graph_top_k=*/5)
                           : spec.factory(&rng);
    const auto t0 = Clock::now();
    Status st;
    {
      Tracer::Scope span(tracer, "models.fit." + spec.name);
      st = model->Fit(context);
    }
    const double ms = SecondsSince(t0) * 1e3;
    report->Attempt();
    if (!st.ok()) report->Fail(spec.name + " fit: " + st.ToString(), false);
    critical = std::max(critical, ms);
    report->Set("models.fit_ms." + spec.name, ms, "ms");
  }
  report->Set("models.critical_ms", critical, "ms");
}

/// Serving-layer means over one step, from the server's own histograms.
void ReportServeLayers(const Step& step, Report* report) {
  const ServerCounters& a = step.after;
  const ServerCounters& b = step.before;
  report->Set("serve.queue_ms", a.MeanSince(b, "serve/queue_ms"), "ms");
  report->Set("serve.batch_form_ms", a.MeanSince(b, "serve/batch_form_ms"),
              "ms");
  report->Set("serve.compute_ms", a.MeanSince(b, "serve/compute_ms"), "ms");
  report->Set("serve.batch_size", a.MeanSince(b, "serve/batch_size"),
              "count");
  report->Set("net.dispatch_wait_ms",
              a.MeanSince(b, "serve/net_latency_ms") -
                  a.MeanSince(b, "serve/latency_ms"),
              "ms");
  report->Set("gen.lag_ms", step.client.lag_p50_ms, "ms");
}

/// Serving probe for the training workloads: a short step at the loaded
/// rate against a server loaded with a freshly fitted member of this fold.
void ProbeServing(const Fold& f, const Args& args, Report* report) {
  MemberFit m = FitMember(f, nullptr, report);
  const std::string artifact = args.workdir + "/probe.amsmodel";
  serve::SaveAmsArtifact(artifact, *m.model).Abort("save artifact");
  ServerProcess server;
  server.Start(args.server, artifact, args.workdir + "/server.log")
      .Abort("start server");
  const auto blocks = ReferenceBlocks(f, artifact);
  Step step = RunStep(server, blocks, kLoadedRps, 2.0, Connections());
  SayStep("probe", step.client);
  CheckStep(step, "serving probe", report);
  ReportServeLayers(step, report);
  server.Stop();
}

// ------------------------------------------------------------------------
// Workloads.

/// `fit`: the paper pipeline's training step on the transaction-amount
/// market — AmsRegressor::Fit (3-member ensemble, AmsConfig{}) on the last
/// CV fold, then predict and evaluate the test quarter.
struct FitRun {
  double wall_s = 0.0;
  int epochs = 0;
  uint64_t digest = 0;
};

FitRun FitOnce(const Fold& f, Tracer* tracer, Report* report) {
  FitRun run;
  models::AmsRegressor model(core::AmsConfig{}, /*graph_top_k=*/5);
  const models::FitContext context = f.Context(kModelSeed);
  const uint64_t epochs0 = CounterValue("ams/train/epochs");
  const auto t0 = Clock::now();
  Status st;
  {
    Tracer::Scope span(tracer, "models.ams_regressor_fit");
    st = model.Fit(context);
  }
  run.wall_s = SecondsSince(t0);
  run.epochs = static_cast<int>(CounterValue("ams/train/epochs") - epochs0);
  report->Attempt();
  if (!st.ok()) {
    report->Fail("AmsRegressor::Fit: " + st.ToString(), false);
    return run;
  }
  Tracer::Scope span(tracer, "ams.predict_test");
  auto pred = model.PredictNorm(f.test);
  auto eval = pred.ok() ? metrics::Evaluate(f.test, pred.ValueOrDie())
                        : Result<metrics::EvalResult>(pred.status());
  if (!eval.ok() || !std::isfinite(eval.ValueOrDie().ba)) {
    report->Fail("predict/evaluate failed", true);
    return run;
  }
  run.digest = perfbench::Digest(pred.ValueOrDie());
  return run;
}

double ParUtilization(double busy_us, double wall_s, double pool_size) {
  return wall_s > 0 && pool_size > 0 ? busy_us / (wall_s * 1e6 * pool_size)
                                     : 0.0;
}

/// In-process par/hpo/gbdt counters over one traced operation.
class CounterWindow {
 public:
  CounterWindow()
      : busy_us_(ParBusyUs()),
        tasks_(CounterValue("par/tasks_run")),
        trials_(CounterValue("hpo/trials")),
        trees_(CounterValue("gbdt/trees_grown")) {}

  void Publish(double wall_s, Report* report) const {
    report->Set("par.utilization",
                ParUtilization(ParBusyUs() - busy_us_, wall_s,
                               par::DefaultPool().parallelism()),
                "ratio");
    report->Set("par.tasks_run", CounterValue("par/tasks_run") - tasks_,
                "count");
    report->Set("hpo.trials", CounterValue("hpo/trials") - trials_, "count");
    report->Set("gbdt.trees_grown", CounterValue("gbdt/trees_grown") - trees_,
                "count");
  }

 private:
  double busy_us_, tasks_, trials_, trees_;
};

void RunFit(const Args& args, Tracer* tracer, Report* report) {
  std::unique_ptr<Fold> fold;
  // Set-up is timed before the first fit and again after every fit. Host
  // speed on a shared VM holds for seconds at a time, so one window of
  // set-ups lands wholly in a fast or a slow period; windows spread over
  // the run take their median over several.
  std::vector<double> setup;
  const auto time_setup = [&] {
    TimeSetup(5, 0.2, &setup, [&](int) {
      fold = BuildFold(data::DatasetProfile::kTransactionAmount, args.seed,
                       nullptr);
    });
  };
  time_setup();
  if (tracer->enabled()) {
    // Untraced then traced ensemble fit: their difference is the tracing
    // overhead; the traced one also carries the par/hpo/gbdt counters.
    const FitRun plain = FitOnce(*fold, nullptr, report);
    const CounterWindow counters;
    const FitRun traced = FitOnce(*fold, tracer, report);
    counters.Publish(traced.wall_s, report);
    report->Set("trace.overhead",
                (traced.wall_s - plain.wall_s) / plain.wall_s, "ratio");
    if (plain.digest != traced.digest) {
      report->Fail("ensemble predictions differ between two fits", true);
    }
    ProbeLayers(*fold, args, tracer, report);
    ProbeServing(*fold, args, report);
    return;
  }

  // Ensemble fits until the time is up (at least one). Per-epoch times
  // are independent of how many epochs early stopping lets a seed run,
  // which is why the gated numbers are per epoch.
  std::vector<double> fit_s;
  int epochs = 0;
  uint64_t digest = 0;
  EpochSampler sampler;
  const auto t0 = Clock::now();
  double last = 0.0;
  while (fit_s.empty() || SecondsSince(t0) + last <= args.seconds) {
    const FitRun run = FitOnce(*fold, nullptr, report);
    last = run.wall_s;
    if (run.epochs <= 0) break;
    fit_s.push_back(run.wall_s);
    epochs += run.epochs;
    time_setup();
    if (digest != 0 && run.digest != digest) {
      report->Fail("ensemble predictions differ between two fits", true);
    }
    digest = run.digest;
  }
  const std::vector<double> epoch_ms = sampler.Stop();
  CheckDigest(args, digest, report);
  double fit_total = 0.0;
  for (double f : fit_s) fit_total += f;
  const double epoch = Median(epoch_ms);
  const double epoch_p90 = perfbench::Quantile(epoch_ms, 0.9);
  const double setup_s = Median(setup);
  const double rss = PeakRssMb(::getpid());
  std::fprintf(stderr, "fit: %zu ensemble fits, %d epochs\n", fit_s.size(),
               epochs);
  Say("setup_s", setup_s, "s",
      "market + features, median of " + std::to_string(setup.size()));
  Say("fit_s", Median(fit_s), "s",
      "median ensemble fit, " + std::to_string(epochs / fit_s.size()) +
          " epochs each");
  Say("epoch_ms", epoch, "ms",
      "median epoch, n=" + std::to_string(epoch_ms.size()));
  Say("epoch_p90_ms", epoch_p90, "ms");
  Say("epochs_per_s", epochs / fit_total, "1/s", "epochs / ensemble fit time");
  Say("peak_rss_mb", rss, "MB");
  report->Set("setup_s", setup_s, "s");
  report->Set("peak_rss_mb", rss, "MB");
  // The gated epoch time is the p90: on a VM whose speed switches between
  // states, the median moves with the share of fast periods in the run
  // (18% IQR over ten seeds) while the p90 holds (5%). The gated rate is
  // the training throughput at that epoch time, for the same reason: the
  // mean epochs_per_s spread 21-27% over ten seeds.
  report->Set("time_ms", epoch_p90, "ms");
  report->Set("rate", 1e3 / epoch_p90, "1/s");
}

/// `sweep`: Table II on the map-query market — the uncached experiment
/// protocol (models::RunExperimentOnPanel, which models::RunExperiment runs
/// after generating the market) over the whole zoo, with HPO, on both CV
/// folds,
/// on the default par pool.
struct SweepRun {
  double wall_s = 0.0;
  size_t fits = 0;
  uint64_t digest = 0;
};

SweepRun SweepOnce(const data::Panel& panel, Tracer* tracer,
                   Report* report) {
  models::ExperimentConfig config;
  config.profile = data::DatasetProfile::kMapQuery;
  config.seed = kModelSeed;
  SweepRun run;
  const auto t0 = Clock::now();
  Result<models::ExperimentResult> result = [&] {
    Tracer::Scope span(tracer, "models.run_experiment");
    return models::RunExperimentOnPanel(panel, config);
  }();
  run.wall_s = SecondsSince(t0);
  if (!result.ok()) {
    report->Attempt();
    report->Fail("RunExperimentOnPanel: " + result.status().ToString(),
                 false);
    return run;
  }
  run.digest = 0xcbf29ce484222325ULL;
  for (const models::ModelOutcome& m : result.ValueOrDie().models) {
    for (const models::FoldOutcome& fo : m.folds) {
      ++run.fits;
      report->Attempt();
      const bool finite =
          std::all_of(fo.predicted_ur.begin(), fo.predicted_ur.end(),
                      [](double v) { return std::isfinite(v); });
      if (fo.predicted_ur.empty() || !finite) {
        report->Fail(m.name + " produced no finite predictions", false);
      }
      run.digest = perfbench::Digest(fo.predicted_ur, run.digest);
    }
  }
  return run;
}

void RunSweep(const Args& args, Tracer* tracer, Report* report) {
  // Set-up: the market the sweep trains on, and the warm pool.
  data::Panel panel;
  // Timed before the first sweep and after every sweep, as in RunFit.
  std::vector<double> setup;
  const auto time_setup = [&] {
    TimeSetup(5, 0.2, &setup, [&](int) {
      par::DefaultPool();
      panel = data::GenerateMarket(data::GeneratorConfig::Defaults(
                                       data::DatasetProfile::kMapQuery,
                                       args.seed))
                  .MoveValue();
    });
  };
  time_setup();
  if (tracer->enabled()) {
    const SweepRun plain = SweepOnce(panel, nullptr, report);
    const CounterWindow counters;
    const SweepRun traced = SweepOnce(panel, tracer, report);
    counters.Publish(traced.wall_s, report);
    report->Set("trace.overhead",
                (traced.wall_s - plain.wall_s) / plain.wall_s, "ratio");
    if (plain.digest != traced.digest) {
      report->Fail("sweep predictions differ between two runs", true);
    }
    auto fold = BuildFold(data::DatasetProfile::kMapQuery, args.seed, tracer);
    ProbeLayers(*fold, args, tracer, report);
    ProbeServing(*fold, args, report);
    return;
  }

  std::vector<double> sweep_s;
  size_t fits = 0;
  uint64_t digest = 0;
  const auto t0 = Clock::now();
  double last = 0.0;
  // At least two sweeps: one sweep's wall time swung 0.15-0.23 (IQR over
  // median) over ten seeds with host speed and the pool's claim order.
  while (sweep_s.size() < 2 || SecondsSince(t0) + last <= args.seconds) {
    const SweepRun run = SweepOnce(panel, nullptr, report);
    last = run.wall_s;
    if (run.fits == 0) break;
    sweep_s.push_back(run.wall_s);
    fits = run.fits;
    time_setup();
    if (digest != 0 && run.digest != digest) {
      report->Fail("sweep predictions differ between two runs", true);
    }
    digest = run.digest;
  }
  CheckDigest(args, digest, report);
  const double sweep = Median(sweep_s);
  const double setup_s = Median(setup);
  const double rss = PeakRssMb(::getpid());
  std::fprintf(stderr, "sweep: %zu sweeps of %zu model-fold fits\n",
               sweep_s.size(), fits);
  Say("setup_s", setup_s, "s",
      "map market + pool, median of " + std::to_string(setup.size()));
  Say("sweep_s", sweep, "s", "median experiment wall time");
  Say("peak_rss_mb", rss, "MB");
  report->Set("setup_s", setup_s, "s");
  report->Set("peak_rss_mb", rss, "MB");
  report->Set("time_ms", 1e3 * sweep, "ms");
  report->Set("rate", fits / sweep, "1/s");
}

/// `serve`: open-loop AMSNET1 scoring of quarter blocks against
/// tools/net_server_main serving one paper-default member with default
/// knobs.
void RunServe(const Args& args, Tracer* tracer, Report* report) {
  const std::string artifact = args.workdir + "/serve.amsmodel";
  std::unique_ptr<Fold> fold;
  ServerProcess server;
  // Set-up, three times: market, features, one member fit, artifact save,
  // server start to readiness. The last server stays up.
  const double setup_s = MedianSetup(3, 0.0, [&](int i) {
    fold = BuildFold(data::DatasetProfile::kTransactionAmount, args.seed,
                     i == 2 ? tracer : nullptr);
    MemberFit m = FitMember(*fold, i == 2 ? tracer : nullptr, report);
    serve::SaveAmsArtifact(artifact, *m.model).Abort("save artifact");
    server.Start(args.server, artifact, args.workdir + "/server.log")
        .Abort("start server");
  });
  if (server.cols() != fold->test.num_features() ||
      server.rows() != fold->panel.num_companies()) {
    report->Incorrect("served model shape differs from the request blocks");
  }
  const auto blocks = ReferenceBlocks(*fold, artifact);
  const int conns = Connections();

  // Warm-up (not reported), then the closed-loop capacity estimate that
  // places the ladder. It runs 4 s: from a 1.5 s estimate, max_rps spread
  // 0.24 (IQR over median) over five seeds.
  RunOpenLoop(server.port(), conns, 100.0, 1.0, blocks);
  const double capacity =
      ClosedLoopRps(server.port(), conns, 4.0, blocks, report);

  if (tracer->enabled()) {
    // Untraced and traced steps at the loaded rate; the traced one records
    // a span per request and carries the server-side layer means.
    const double s = std::max(2.0, args.seconds / 6.0);
    Step plain = RunStep(server, blocks, kLoadedRps, s, conns);
    Step traced = RunStep(server, blocks, kLoadedRps, s, conns);
    {
      Tracer::Scope span(tracer, "serve.step_loaded");
      for (const auto& r : traced.records) {
        tracer->Record("net.request",
                       traced.start + std::chrono::microseconds(
                                          static_cast<long>(r.due_s * 1e6)),
                       (r.done_s - r.due_s) * 1e3);
      }
    }
    SayStep("r250", plain.client);
    SayStep("r250/tr", traced.client);
    CheckStep(plain, "r250", report);
    CheckStep(traced, "r250 traced", report);
    ReportServeLayers(traced, report);
    const double wall = traced.client.attempted / kLoadedRps;
    report->Set("par.utilization",
                ParUtilization(traced.after.par_busy_us -
                                   traced.before.par_busy_us,
                               wall, traced.after.pool_size),
                "ratio");
    report->Set("par.tasks_run",
                traced.after.Counter("par/tasks_run") -
                    traced.before.Counter("par/tasks_run"),
                "count");
    report->Set("hpo.trials", 0.0, "count");
    report->Set("gbdt.trees_grown", 0.0, "count");
    report->Set("trace.overhead",
                (traced.client.latency_ms.p50 - plain.client.latency_ms.p50) /
                    plain.client.latency_ms.p50,
                "ratio");
    for (const Step* st : {&plain, &traced}) {
      report->Attempt(st->client.attempted);
      if (st->client.failed() > 0) {
        report->Fail("r250 step had failed requests", false,
                     st->client.failed());
      }
    }
    server.Stop();
    ProbeLayers(*fold, args, tracer, report);
    return;
  }

  // Fixed rates: 100 rps (batches of one: the per-request path) and
  // 250 rps (about two thirds of the open-loop knee on a 4-vCPU host:
  // queueing and batching show, and a host slowdown of 15% does not push
  // it into saturation, as it does 300 rps). The 250 rps phase runs as
  // three windows of at least 1000 requests, with the server counters
  // checked per window; its percentiles pool all 3000+ samples, which
  // keeps a host stall in one window from setting the p99.
  Step r100 = RunStep(server, blocks, 100.0, args.seconds / 3.0, conns);
  SayStep("r100", r100.client);
  std::vector<Step> loaded;
  const double window_s = std::max(args.seconds / 9.0, 1000.0 / kLoadedRps);
  for (int w = 0; w < 3; ++w) {
    loaded.push_back(RunStep(server, blocks, kLoadedRps, window_s, conns));
    SayStep("r250", loaded.back().client);
  }
  std::vector<const Step*> fixed = {&r100};
  for (const Step& w : loaded) fixed.push_back(&w);
  std::vector<perfbench::RequestRecord> pooled;
  for (const Step& w : loaded) {
    pooled.insert(pooled.end(), w.records.begin(), w.records.end());
  }
  const perfbench::StepSummary loaded_all =
      perfbench::SummarizeStep(pooled, kLoadedRps);
  for (const Step* step : fixed) {
    CheckStep(*step, "fixed-rate step", report);
    report->Attempt(step->client.attempted);
    if (step->client.failed() > 0) {
      report->Fail("fixed-rate step had failed requests", false,
                   step->client.failed());
    }
  }

  // Ladder for max_rps: 5% steps (finer than a tenth of the rate) from 80%
  // of the closed-loop capacity. A step passes when it meets the limit
  // (p90 <= 20 ms, fail_ratio <= 1%, no growing backlog). Until a step
  // passes, the rate steps down; after that it steps up, and two failing
  // steps in a row end the ladder, so one host stall does not. Shed
  // requests are the point of this probe and do not count as failed
  // operations; wrong scores do.
  const double step_s = 2.0;
  const int max_steps = 8;
  double max_rps = 0.0;
  int failing = 0;
  double rate = 0.8 * capacity;
  for (int i = 0; i < max_steps && failing < 2; ++i) {
    Step s = RunStep(server, blocks, rate, step_s, conns);
    SayStep("ladder", s.client);
    if (s.client.mismatch > 0) CheckStep(s, "ladder", report);
    if (perfbench::StepMeetsLimit(s.records, s.client, kLimitQuantile,
                                  kLatencyLimitMs)) {
      max_rps = std::max(max_rps, rate);
      failing = 0;
      rate *= 1.05;
    } else if (max_rps == 0.0) {
      rate /= 1.05;
    } else {
      ++failing;
      rate *= 1.05;
    }
    // Let a queue built near the limit drain before the next step.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  if (failing < 2) {
    std::fprintf(stderr,
                 "serve: ladder ended below the limit; max_rps is a lower "
                 "bound\n");
  }
  if (max_rps == 0.0) {
    report->Fail("no ladder step met the serving limit", false);
  }
  const double rss = PeakRssMb(server.pid());
  server.Stop();

  Say("setup_s", setup_s, "s");
  Say("capacity_rps", capacity, "1/s", "closed loop, " +
                                           std::to_string(conns) + " clients");
  Say("p50_ms.r100", r100.client.latency_ms.p50, "ms",
      "n=" + std::to_string(r100.client.latency_ms.count));
  Say("p99_ms.r100", r100.client.latency_ms.p99, "ms",
      "n=" + std::to_string(r100.client.latency_ms.count));
  const std::string loaded_n =
      "n=" + std::to_string(loaded_all.latency_ms.count);
  Say("p50_ms.r250", loaded_all.latency_ms.p50, "ms", loaded_n);
  Say("p99_ms.r250", loaded_all.latency_ms.p99, "ms", loaded_n);
  Say("max_rps", max_rps, "1/s", "p90 <= 20 ms, fail <= 1%, no backlog");
  Say("peak_rss_mb", rss, "MB", "server process");
  report->Set("setup_s", setup_s, "s");
  report->Set("peak_rss_mb", rss, "MB");
  report->Set("time_ms", r100.client.latency_ms.p50, "ms");
  report->Set("rate", max_rps, "1/s");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.workload = GetFlag(argc, argv, "workload", "");
  args.seed = GetFlagU64(argc, argv, "seed", 1);
  args.seconds = std::atof(GetFlag(argc, argv, "seconds", "25").c_str());
  args.trace = GetFlagInt(argc, argv, "trace", 0) != 0;
  args.server = GetFlag(argc, argv, "server", "");
  args.workdir = GetFlag(argc, argv, "workdir", "");
  if (args.workdir.empty() || args.server.empty() || !(args.seconds > 0)) {
    std::fprintf(stderr, "perfbench_driver: --workdir, --server and a "
                         "positive --seconds are required\n");
    return 2;
  }
  const std::string fingerprint = Fingerprint();
  std::fprintf(stderr, "fingerprint: %s\n", fingerprint.c_str());
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench_driver: refusing an assert-enabled build\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench_driver: refusing a %s build; timings "
                         "are only comparable from Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::filesystem::create_directories(args.workdir);

  Tracer tracer(args.trace);
  Report report;
  std::fprintf(stderr, "workload %s seed %llu (%s run)\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               args.trace ? "traced" : "untraced");
  if (args.workload == "fit") {
    RunFit(args, &tracer, &report);
  } else if (args.workload == "sweep") {
    RunSweep(args, &tracer, &report);
  } else if (args.workload == "serve") {
    RunServe(args, &tracer, &report);
  } else {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (!args.trace) {
    const double ok = 1.0 - static_cast<double>(report.failed()) /
                                std::max<size_t>(1, report.attempted());
    Say("fail_ratio", 1.0 - ok, "ratio",
        std::to_string(report.failed()) + "/" +
            std::to_string(report.attempted()));
    report.Set("ok_ratio", ok, "ratio");
  }
  if (tracer.enabled()) {
    const std::string path = args.workdir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    tracer.WriteChromeTrace(path);
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
