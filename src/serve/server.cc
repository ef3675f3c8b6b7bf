#include "serve/server.h"

#include <cstring>
#include <filesystem>
#include <iterator>
#include <thread>
#include <utility>

#include "data/features.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/faults.h"
#include "serve/artifact.h"
#include "serve/env_util.h"
#include "util/logging.h"

namespace ams::serve {

namespace {

using internal::EnvInt;

using Clock = InferenceServer::Clock;

/// How long slow_batch@serve stalls a batch. Long enough for a test to
/// fill or expire the queue behind it, short enough not to slow the suite.
constexpr int kSlowBatchStallMs = 300;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// serve/requests outcome labels, indexed by OutcomeIndex.
constexpr const char* kOutcomes[] = {"ok", "error", "shed", "deadline"};

size_t OutcomeIndex(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kUnavailable:
      return 2;
    case StatusCode::kDeadlineExceeded:
      return 3;
    default:
      return 1;
  }
}

}  // namespace

ServerOptions ServerOptions::FromEnv() {
  ServerOptions options;
  options.max_batch = EnvInt("AMS_SERVE_BATCH", options.max_batch, 1, 4096);
  options.max_queue =
      EnvInt("AMS_SERVE_QUEUE", options.max_queue, 1, 1 << 20);
  return options;
}

const char* RequestOutcome(const Status& status) {
  return kOutcomes[OutcomeIndex(status)];
}

InferenceServer::InferenceServer(ServerOptions options)
    : options_(options) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  for (size_t i = 0; i < std::size(kOutcomes); ++i) {
    requests_[i] =
        &registry.GetCounter("serve/requests", {{"outcome", kOutcomes[i]}});
  }
  batches_ = &registry.GetCounter("serve/batches");
  reloads_ = &registry.GetCounter("serve/reloads");
  reload_checks_ = &registry.GetCounter("serve/reload_checks");
  reload_errors_ = &registry.GetCounter("serve/reload_errors");
  queue_depth_ = &registry.GetGauge("serve/queue_depth");
  net_queue_depth_ = &registry.GetGauge("serve/net_queue_depth");
  shed_rate_ = &registry.GetGauge("serve/shed_rate");
  model_version_gauge_ = &registry.GetGauge("serve/model_version");
  batch_size_ = &registry.GetHistogram(
      "serve/batch_size", obs::Histogram::ExponentialBounds(1.0, 2.0, 13));
  latency_ms_ = &registry.GetHistogram("serve/latency_ms",
                                       obs::Histogram::ExponentialBounds());
  queue_ms_ = &registry.GetHistogram("serve/queue_ms",
                                     obs::Histogram::ExponentialBounds());
  batch_form_ms_ = &registry.GetHistogram(
      "serve/batch_form_ms", obs::Histogram::ExponentialBounds());
  compute_ms_ = &registry.GetHistogram("serve/compute_ms",
                                       obs::Histogram::ExponentialBounds());
  batcher_ = std::thread([this] { BatchLoop(); });
}

InferenceServer::~InferenceServer() {
  StopReloadWatcher();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  batcher_.join();
}

Status InferenceServer::InstallModel(core::AmsModel model) {
  if (!model.fitted()) {
    return Status::FailedPrecondition(
        "InferenceServer requires a fitted model");
  }
  AMS_ASSIGN_OR_RETURN(std::string fingerprint, model.ModelFingerprint());
  std::shared_ptr<LoadedModel> loaded(
      new LoadedModel{std::move(model), fingerprint, 0});
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    loaded->version = ++next_version_;
    model_version_gauge_->Set(loaded->version);
    model_ = std::move(loaded);
  }
  reloads_->Increment();
  obs::SetLedgerComponent("serve_model_fingerprint", fingerprint);
  return Status::OK();
}

Status InferenceServer::LoadModel(core::AmsModel model) {
  return InstallModel(std::move(model));
}

Status InferenceServer::LoadArtifact(const std::string& path) {
  AMS_ASSIGN_OR_RETURN(core::AmsModel model, LoadAmsArtifact(path));
  return InstallModel(std::move(model));
}

Status InferenceServer::ReloadIfChanged(const std::string& path) {
  AMS_ASSIGN_OR_RETURN(ArtifactInfo info, ProbeArtifact(path));
  if (info.kind != "ams") {
    return Status::InvalidArgument("artifact at " + path +
                                   " is not an AMS model (kind '" +
                                   info.kind + "')");
  }
  if (info.fingerprint == model_fingerprint()) return Status::OK();
  return LoadArtifact(path);
}

Status InferenceServer::StartReloadWatcher(const std::string& path,
                                           double interval_ms) {
  if (!(interval_ms > 0.0)) {
    return Status::InvalidArgument("reload watch interval must be > 0 ms");
  }
  std::lock_guard<std::mutex> lock(watch_mu_);
  if (watcher_.joinable()) {
    return Status::FailedPrecondition("a reload watcher is already running");
  }
  watch_stop_ = false;
  watcher_ = std::thread(
      [this, path, interval_ms] { ReloadWatchLoop(path, interval_ms); });
  return Status::OK();
}

void InferenceServer::StopReloadWatcher() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    if (!watcher_.joinable()) return;
    watch_stop_ = true;
    to_join = std::move(watcher_);
  }
  watch_cv_.notify_all();
  to_join.join();
}

void InferenceServer::ReloadWatchLoop(std::string path, double interval_ms) {
  namespace fs = std::filesystem;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(interval_ms));
  fs::file_time_type last_mtime = fs::file_time_type::min();
  bool primed = false;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watch_mu_);
      if (watch_cv_.wait_for(lock, interval, [this] { return watch_stop_; })) {
        return;
      }
    }
    reload_checks_->Increment();
    std::error_code ec;
    const fs::file_time_type mtime = fs::last_write_time(path, ec);
    if (ec) continue;  // absent / unreadable: retry next tick
    if (primed && mtime == last_mtime) continue;
    // First sighting, or the mtime moved: probe the fingerprint and swap
    // only on a real change. A failed load keeps the current model.
    const Status status = ReloadIfChanged(path);
    if (!status.ok()) {
      reload_errors_->Increment();
      AMS_LOG(Warning) << "reload watcher: " << path << ": " << status;
      continue;  // leave last_mtime untouched so the next tick retries
    }
    last_mtime = mtime;
    primed = true;
  }
}

int InferenceServer::model_version() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_ != nullptr ? model_->version : 0;
}

std::string InferenceServer::model_fingerprint() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_ != nullptr ? model_->fingerprint : std::string();
}

bool InferenceServer::model_shape(int* rows, int* cols) const {
  std::lock_guard<std::mutex> lock(model_mu_);
  if (model_ == nullptr) return false;
  *rows = model_->model.num_companies();
  *cols = model_->model.num_features();
  return true;
}

void InferenceServer::Admit(la::Matrix features, Clock::time_point deadline,
                            Callback done) {
  std::vector<Pending> request(1);
  request[0].owned = std::move(features);
  request[0].deadline = deadline;
  request[0].done = std::move(done);
  Enqueue(std::move(request));
}

Result<std::vector<double>> InferenceServer::Score(
    const la::Matrix& features) {
  AMS_TRACE_SPAN("serve/request");
  return std::move(ScoreBlocks({&features})[0]);
}

std::vector<Result<std::vector<double>>> InferenceServer::ScoreBatch(
    const std::vector<la::Matrix>& blocks) {
  AMS_TRACE_SPAN("serve/request");
  std::vector<const la::Matrix*> lent;
  lent.reserve(blocks.size());
  for (const la::Matrix& block : blocks) lent.push_back(&block);
  return ScoreBlocks(lent);
}

std::vector<Result<std::vector<double>>> InferenceServer::ScoreBlocks(
    const std::vector<const la::Matrix*>& blocks) {
  std::vector<Result<std::vector<double>>> results(
      blocks.size(), Status::Internal("request was never answered"));
  std::mutex mu;
  std::condition_variable answered;
  size_t pending = blocks.size();
  std::vector<Pending> requests(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    requests[i].lent = blocks[i];
    requests[i].done = [&, i](Result<std::vector<double>> result) {
      // Notify under the lock: once it is released this frame may unwind.
      std::lock_guard<std::mutex> lock(mu);
      results[i] = std::move(result);
      if (--pending == 0) answered.notify_all();
    };
  }
  Enqueue(std::move(requests));
  std::unique_lock<std::mutex> lock(mu);
  answered.wait(lock, [&] { return pending == 0; });
  return results;
}

void InferenceServer::Enqueue(std::vector<Pending> requests) {
  if (requests.empty()) return;
  std::shared_ptr<const LoadedModel> snapshot;
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    snapshot = model_;
  }
  // The caller's innermost span (Score/ScoreBatch's serve/request, or the
  // network reader's) becomes the parent of the phase spans on the batcher.
  const obs::TraceContext trace = obs::CurrentTraceContext();
  std::vector<std::pair<Pending*, Status>> rejected;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    const Clock::time_point now = Clock::now();
    for (Pending& request : requests) {
      request.model = snapshot;
      request.admitted = now;
      request.trace = trace;
      const la::Matrix& features = request.features();
      Status status;
      ++admissions_;
      if (stopping_) {
        status = Status::FailedPrecondition("server is shutting down");
      } else if (snapshot == nullptr) {
        status = Status::FailedPrecondition("no model loaded");
      } else if (features.rows() != snapshot->model.num_companies() ||
                 features.cols() != snapshot->model.num_features()) {
        status = Status::InvalidArgument(
            "request shape " + std::to_string(features.rows()) + "x" +
            std::to_string(features.cols()) + " does not match model " +
            std::to_string(snapshot->model.num_companies()) + "x" +
            std::to_string(snapshot->model.num_features()));
      } else if (now >= request.deadline) {
        // A slow peer dribbled the frame in: dead on arrival.
        status = Status::DeadlineExceeded("deadline expired before admission");
      } else if (queue_.size() >= static_cast<size_t>(options_.max_queue)) {
        // SHED: a clean, distinct status — the one response an overloaded
        // server can always afford.
        ++sheds_;
        status = Status::Unavailable("overloaded: admission queue at limit " +
                                     std::to_string(options_.max_queue));
      } else {
        queue_.push_back(std::move(request));
        continue;
      }
      rejected.emplace_back(&request, std::move(status));
    }
    shed_rate_->Set(static_cast<double>(sheds_) /
                    static_cast<double>(admissions_));
    PublishQueueDepth();
    // Notify under the lock: once it is released the batcher may serve
    // these requests and the server may be destroyed before a late notify.
    if (rejected.size() < requests.size()) queue_cv_.notify_one();
  }
  for (auto& [request, status] : rejected) Finish(*request, std::move(status));
}

void InferenceServer::Finish(Pending& request,
                             Result<std::vector<double>> result) {
  requests_[OutcomeIndex(result.status())]->Increment();
  request.done(std::move(result));
}

void InferenceServer::PublishQueueDepth() {
  const double depth = static_cast<double>(queue_.size());
  queue_depth_->Set(depth);
  net_queue_depth_->Set(depth);
}

void InferenceServer::BatchLoop() {
  auto& injector = robust::FaultInjector::Get();
  const size_t max_batch = static_cast<size_t>(options_.max_batch);
  std::unique_lock<std::mutex> lock(queue_mu_);
  for (;;) {
    queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and fully drained

    // Greedy batch: every queued request admitted under the oldest
    // request's model snapshot (drain-on-old-model across hot reloads), up
    // to max_batch, in admission order. No timer: whatever is queued now
    // is the batch.
    const LoadedModel* batch_model = queue_.front().model.get();
    std::vector<Pending> batch;
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < max_batch;) {
      if (it->model.get() != batch_model) {
        ++it;
        continue;
      }
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    }
    PublishQueueDepth();
    lock.unlock();

    const Clock::time_point batch_start = Clock::now();
    if (injector.OnServeBatch()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kSlowBatchStallMs));
    }
    // Formation-time deadline check: queue wait may have eaten the budget.
    // An expired request is answered, never scored — scoring it anyway is
    // how overloaded servers melt down.
    const Clock::time_point now = Clock::now();
    std::vector<Pending> live;
    live.reserve(batch.size());
    for (Pending& request : batch) {
      if (now < request.deadline) {
        live.push_back(std::move(request));
        continue;
      }
      Finish(request,
             Status::DeadlineExceeded(
                 "deadline expired in queue after " +
                 std::to_string(MsBetween(request.admitted, now)) + "ms"));
    }
    if (!live.empty()) ExecuteBatch(std::move(live), batch_start);
    lock.lock();
  }
}

void InferenceServer::ExecuteBatch(std::vector<Pending> batch,
                                   Clock::time_point batch_start) {
  AMS_TRACE_SPAN("serve/batch");
  batches_->Increment();
  batch_size_->Observe(static_cast<double>(batch.size()));

  const core::AmsModel& model = batch.front().model->model;
  const int num_companies = model.num_companies();
  const int num_features = model.num_features();
  const int k = static_cast<int>(batch.size());

  // One synthetic quarter per request: AmsModel forwards quarters
  // independently, so packing K blocks is bit-identical to K single calls.
  data::Dataset dataset;
  dataset.x = la::Matrix(k * num_companies, num_features);
  dataset.y.assign(static_cast<size_t>(k) * num_companies, 0.0);
  dataset.meta.resize(static_cast<size_t>(k) * num_companies);
  for (int b = 0; b < k; ++b) {
    const la::Matrix& block = batch[b].features();
    std::memcpy(dataset.x.row_data(b * num_companies), block.data(),
                static_cast<size_t>(num_companies) * num_features *
                    sizeof(double));
    for (int i = 0; i < num_companies; ++i) {
      data::SampleMeta& meta = dataset.meta[b * num_companies + i];
      meta.company = i;
      meta.quarter = b;
    }
  }

  const auto predict_start = Clock::now();
  Result<std::vector<double>> predictions = [&] {
    AMS_TRACE_SPAN("serve/batch/predict");
    // Executed inline on the batcher thread: the GEMMs inside already
    // parallelize on the default pool. (Predict writes no model state, so
    // concurrent calls on one instance would also be safe.)
    return model.Predict(dataset);
  }();
  const auto predict_end = Clock::now();

  // Per-request phase attribution. Batch formation and compute are shared
  // work, but latency is a per-request quantity, so each request observes
  // the full shared interval — then queue + batch_form + compute sums to
  // latency minus only the response fan-out below. When tracing is on, the
  // same intervals are replayed as spans parented under each request's
  // serve/request span (tagged with the model version), which is what links
  // the caller and batcher lanes into one trace per request.
  const bool tracing = obs::TraceBuffer::Get().enabled();
  const uint64_t version =
      static_cast<uint64_t>(batch.front().model->version);
  const auto now = Clock::now();
  for (int b = 0; b < k; ++b) {
    queue_ms_->Observe(MsBetween(batch[b].admitted, batch_start));
    batch_form_ms_->Observe(MsBetween(batch_start, predict_start));
    compute_ms_->Observe(MsBetween(predict_start, predict_end));
    if (tracing) {
      obs::RecordSpanWithParent("serve/queue", batch[b].trace,
                                batch[b].admitted, batch_start, version);
      obs::RecordSpanWithParent("serve/batch_form", batch[b].trace,
                                batch_start, predict_start, version);
      obs::RecordSpanWithParent("serve/compute", batch[b].trace,
                                predict_start, predict_end, version);
    }
    latency_ms_->Observe(MsBetween(batch[b].admitted, now));
    if (!predictions.ok()) {
      Finish(batch[b], predictions.status());
      continue;
    }
    const std::vector<double>& all = predictions.ValueOrDie();
    Finish(batch[b], std::vector<double>(
                         all.begin() + static_cast<size_t>(b) * num_companies,
                         all.begin() +
                             static_cast<size_t>(b + 1) * num_companies));
  }
}

}  // namespace ams::serve
