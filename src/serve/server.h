// In-process batched inference server over a fitted AMS model, and the one
// admission queue of the serving path.
//
// Callers score one quarter block at a time — an (num_companies x
// num_features) feature matrix, rows ordered by company index, exactly the
// per-quarter layout data::FeatureBuilder produces and AmsModel::Predict
// consumes. Two thread roles touch a request:
//
//   admitting thread   Admit (network readers) or Score/ScoreBatch (blocking
//                      callers) validates the request and runs ADMISSION
//                      under the queue lock: no model / wrong shape ->
//                      error, deadline already expired -> deadline, queue
//                      at AMS_SERVE_QUEUE -> SHED (kUnavailable). A
//                      rejected request is answered on the admitting
//                      thread and never queued.
//   batcher thread     whenever it is free, takes every queued request that
//                      shares the oldest request's model snapshot, up to
//                      `max_batch`, re-checks deadlines (an expired request
//                      is answered kDeadlineExceeded, never scored), packs
//                      the rest into one multi-quarter Dataset (one
//                      synthetic quarter per request) and scores them with
//                      a single AmsModel::Predict call.
//
// Batching is greedy, with no timer: a batch never waits for requests that
// may not arrive; under load, batches form from the requests that arrived
// while the previous batch computed. Every request's callback runs exactly
// once, and this layer counts exactly one outcome per request.
//
// Because the master forward pass processes quarters independently and the
// underlying GEMMs are bit-deterministic across AMS_THREADS (see src/par),
// the scores returned for a request are bit-identical to calling
// AmsModel::Predict on that block alone — at every batch size and thread
// count. The golden-parity suite in tests/serve_test.cc enforces this.
//
// Hot reload: LoadArtifact / LoadModel atomically swap in a new model. Every
// request snapshots the current model at admission, and a batch only groups
// requests that share a snapshot, so in-flight requests always score on the
// model that admitted them ("drain on the old model") and a swap is never
// observed mid-batch. The old model is freed when its last in-flight
// request completes.
//
// Observability: serve/requests{outcome=ok|error|shed|deadline} (one
// outcome per request), serve/batches, serve/reloads, serve/reload_checks
// counters; serve/batch_size and serve/latency_ms histograms (the latter
// feeds the p50/p95/p99 exit report); serve/queue_depth (also exported as
// serve/net_queue_depth, the name the network front's SLOs use),
// serve/shed_rate (lifetime shed fraction of admissions, the SLO hook:
// AMS_SLO="serve/shed_rate:<0.2") and serve/model_version gauges; trace
// spans serve/request (opened by the admitting caller) and serve/batch ->
// serve/batch/predict on the batcher thread.
//
// Request causality: Admit captures the caller's obs::CurrentTraceContext()
// into the pending request, and after the batch executes the batcher
// replays per-request phase spans — serve/queue (admission -> batch
// pickup), serve/batch_form (pickup -> predict start), serve/compute
// (predict) — each parented under that request's serve/request span and
// tagged with the serving model version, so every request renders as one
// connected trace across the caller and batcher lanes (Chrome flow
// events). The same intervals feed per-request phase histograms
// serve/queue_ms / serve/batch_form_ms / serve/compute_ms, which sum to
// serve/latency_ms minus the (tiny) response fan-out.
//
// Fault injection: slow_batch@serve=N (robust/faults.h) stalls the N-th
// batch after it leaves the queue, so tests can hold the batcher busy on
// schedule and fill or expire the queue behind it.
#ifndef AMS_SERVE_SERVER_H_
#define AMS_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ams/ams_model.h"
#include "la/matrix.h"
#include "obs/trace.h"
#include "util/status.h"

namespace ams::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace ams::obs

namespace ams::serve {

struct ServerOptions {
  /// Maximum requests packed into one Predict call (AMS_SERVE_BATCH). Each
  /// batch size leaves its own packed blocks in the tensor buffer pool, and
  /// beyond 4 the serve benchmark measured more peak memory but no more
  /// throughput.
  int max_batch = 4;
  /// Bound on requests admitted but not yet taken by the batcher
  /// (AMS_SERVE_QUEUE). Admissions beyond it are shed with kUnavailable.
  int max_queue = 64;

  /// Reads AMS_SERVE_BATCH / AMS_SERVE_QUEUE, keeping the defaults for
  /// unset or unparseable values. A set-but-unparseable value logs one
  /// AMS_LOG warning naming the variable.
  static ServerOptions FromEnv();
};

/// The serve/requests outcome label of a request answered with `status`:
/// "ok", "shed" (kUnavailable), "deadline" (kDeadlineExceeded) or "error".
const char* RequestOutcome(const Status& status);

class InferenceServer {
 public:
  using Clock = std::chrono::steady_clock;
  /// Receives a request's outcome: one score per company, or why not.
  using Callback = std::function<void(Result<std::vector<double>>)>;

  explicit InferenceServer(ServerOptions options = ServerOptions::FromEnv());
  /// Drains every admitted request (scored on its admission-time model),
  /// then joins the batcher thread.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Atomically swaps in a fitted model. In-flight requests drain on the
  /// model they were admitted under; new admissions see the new model.
  Status LoadModel(core::AmsModel model);

  /// Loads an AMSMODEL1 artifact (CRC-verified, bounds-checked) and swaps
  /// it in. On any load error the current model keeps serving.
  Status LoadArtifact(const std::string& path);

  /// Probes the artifact's fingerprint and reloads only when it differs
  /// from the loaded model's. Prefer StartReloadWatcher for production
  /// wiring; this remains the one-shot building block underneath it.
  Status ReloadIfChanged(const std::string& path);

  /// Starts the mtime-watch reload daemon: a background thread stats
  /// `path` every `interval_ms` (counting each probe in
  /// serve/reload_checks) and runs ReloadIfChanged only when the file's
  /// mtime moved — so steady state costs one stat() per interval, not an
  /// artifact read. A missing file is not an error (the next tick retries);
  /// a failed reload keeps the current model serving and is counted in
  /// serve/reload_errors. FailedPrecondition when a watcher is already
  /// running.
  Status StartReloadWatcher(const std::string& path,
                            double interval_ms = 200.0);
  /// Stops and joins the watcher thread; no-op when none is running. Also
  /// called by the destructor, which joins cleanly mid-interval.
  void StopReloadWatcher();

  /// Admits one quarter block (num_companies x num_features, rows ordered
  /// by company index) to be scored by `deadline` (Clock::time_point::max()
  /// = none). `done` runs exactly once with the outcome: on the calling
  /// thread, before Admit returns, when admission rejects the request;
  /// otherwise on the batcher thread. It must not block for long: the
  /// batcher answers a batch's requests one after another.
  void Admit(la::Matrix features, Clock::time_point deadline, Callback done);

  /// Blocking wrapper over admission: scores one block and waits for the
  /// outcome. `features` must stay alive until this returns.
  Result<std::vector<double>> Score(const la::Matrix& features);

  /// Admits every block under one queue-lock hold, then waits for all of
  /// them; result i corresponds to blocks[i]. Outcomes are per block (a
  /// misshapen block or a full queue fails only the blocks it affects).
  std::vector<Result<std::vector<double>>> ScoreBatch(
      const std::vector<la::Matrix>& blocks);

  /// Monotone version of the loaded model (0 = none loaded yet).
  int model_version() const;
  /// Shape a request block must have (rows = companies, cols = features).
  /// False when no model is loaded.
  bool model_shape(int* rows, int* cols) const;
  /// Config fingerprint of the loaded model ("" = none loaded yet).
  std::string model_fingerprint() const;
  bool has_model() const { return model_version() > 0; }

  const ServerOptions& options() const { return options_; }

 private:
  struct LoadedModel {
    core::AmsModel model;
    std::string fingerprint;
    int version = 0;
  };

  struct Pending {
    la::Matrix owned;                  // Admit: the request owns its block
    const la::Matrix* lent = nullptr;  // Score/ScoreBatch: the caller's
    std::shared_ptr<const LoadedModel> model;
    Clock::time_point admitted;
    Clock::time_point deadline = Clock::time_point::max();
    obs::TraceContext trace;  // caller's context at admission
    Callback done;

    const la::Matrix& features() const {
      return lent != nullptr ? *lent : owned;
    }
  };

  Status InstallModel(core::AmsModel model);

  /// Runs admission for `requests` under one queue-lock hold, in order,
  /// then answers the rejected ones outside the lock.
  void Enqueue(std::vector<Pending> requests);
  /// Blocking admission of borrowed blocks: waits for every outcome.
  std::vector<Result<std::vector<double>>> ScoreBlocks(
      const std::vector<const la::Matrix*>& blocks);
  /// Counts the request's outcome and hands it to its callback.
  void Finish(Pending& request, Result<std::vector<double>> result);
  /// Sets serve/queue_depth and serve/net_queue_depth; queue_mu_ held.
  void PublishQueueDepth();

  void BatchLoop();
  void ReloadWatchLoop(std::string path, double interval_ms);
  /// Scores one batch of same-model requests on the batcher thread and
  /// answers them. `batch_start` is when the batcher took the batch off the
  /// queue (end of each request's queue phase). Never throws.
  void ExecuteBatch(std::vector<Pending> batch, Clock::time_point batch_start);

  const ServerOptions options_;

  mutable std::mutex model_mu_;
  std::shared_ptr<const LoadedModel> model_;  // guarded by model_mu_
  int next_version_ = 0;                      // guarded by model_mu_

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;  // guarded by queue_mu_
  bool stopping_ = false;      // guarded by queue_mu_
  uint64_t admissions_ = 0;    // guarded by queue_mu_ (shed-rate base)
  uint64_t sheds_ = 0;         // guarded by queue_mu_

  // Reload watcher state (guarded by watch_mu_ except the thread itself).
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  bool watch_stop_ = false;
  std::thread watcher_;

  obs::Counter* requests_[4];  // serve/requests, by outcome
  obs::Counter* batches_;
  obs::Counter* reloads_;
  obs::Counter* reload_checks_;
  obs::Counter* reload_errors_;
  obs::Gauge* queue_depth_;
  obs::Gauge* net_queue_depth_;
  obs::Gauge* shed_rate_;
  obs::Gauge* model_version_gauge_;
  obs::Histogram* batch_size_;
  obs::Histogram* latency_ms_;
  obs::Histogram* queue_ms_;       // admission -> batcher pickup
  obs::Histogram* batch_form_ms_;  // pickup -> predict start
  obs::Histogram* compute_ms_;     // predict

  std::thread batcher_;  // last: started after every member is ready
};

}  // namespace ams::serve

#endif  // AMS_SERVE_SERVER_H_
