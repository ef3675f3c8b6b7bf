// Standalone AMSNET1 serving binary: loads (or trains) an AMS model,
// serves it over the loopback socket front, and runs until SIGTERM/SIGINT.
//
// Usage: net_server_main [--artifact=path] [--port=0] [--watch=0]
//
//   --artifact=path  serve this AMSMODEL1 artifact; without it, a tiny
//                    model is trained on synthetic data (fast — intended
//                    for the check_serve.sh gate and local smoke tests)
//   --port=N         overrides AMS_SERVE_PORT
//   --watch=1        start the mtime reload watcher on the artifact path
//
// One admission queue, two thread roles per scored request: a reader per
// connection decodes each frame and admits it straight into the
// InferenceServer's queue; its batcher scores greedy micro-batches and
// writes the responses. Admission control comes from the environment:
// AMS_SERVE_QUEUE (admission-queue bound; beyond it, shed),
// AMS_SERVE_BATCH (micro-batch cap), AMS_SERVE_DEADLINE_MS (default
// per-request deadline). Faults from AMS_FAULTS (conn_drop@accept,
// torn_frame@net_read, slow_peer@net_read, conn_drop@net_write,
// slow_batch@serve) exercise the recovery paths. Telemetry per
// AMS_TELEMETRY / AMS_SLO.
//
// Prints one readiness line on stdout once serving:
//
//   AMSNET listening port=<N> rows=<R> cols=<C>
//
// so harnesses can parse the bound port and request shape, then SIGTERM
// the process for a clean drain (exit code 0). When AMS_ADMIN_PORT is set
// a second line follows with the introspection plane's bound port:
//
//   AMSADMIN port=<N>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "data/features.h"
#include "data/generator.h"
#include "graph/company_graph.h"
#include "obs/report.h"
#include "serve/net_server.h"
#include "serve/server.h"
#include "util/string_util.h"

using namespace ams;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

core::AmsModel TrainTinyModel() {
  data::GeneratorConfig config = data::GeneratorConfig::Defaults(
      data::DatasetProfile::kTransactionAmount, 42);
  config.num_companies = 12;
  config.num_sectors = 3;
  data::Panel panel = data::GenerateMarket(config).MoveValue();
  data::FeatureBuilder builder(&panel, data::FeatureOptions{});
  data::Dataset train = builder.Build({4, 5}).MoveValue();
  data::Dataset valid = builder.Build({6}).MoveValue();
  const data::Standardizer standardizer = data::Standardizer::Fit(train);
  standardizer.Apply(&train);
  standardizer.Apply(&valid);
  graph::CorrelationGraphOptions graph_options;
  graph_options.top_k = 3;
  graph::CompanyGraph graph =
      graph::CompanyGraph::BuildFromRevenue(panel.RevenueHistories(4),
                                            graph_options)
          .MoveValue();
  core::AmsConfig cfg;
  cfg.node_transform_layers = {8};
  cfg.gat.hidden_per_head = {4};
  cfg.gat.num_heads = 2;
  cfg.gat.out_features = 4;
  cfg.generator_hidden = {8};
  cfg.max_epochs = 1;
  cfg.patience = 1;
  core::AmsModel model(cfg);
  model.Fit(train, valid, graph).Abort("fit tiny model");
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  obs::InstallExitReporter();
  std::signal(SIGTERM, HandleStop);
  std::signal(SIGINT, HandleStop);

  const std::string artifact = GetFlag(argc, argv, "artifact", "");
  const int port_flag = GetFlagInt(argc, argv, "port", -1);
  const bool watch = GetFlagInt(argc, argv, "watch", 0) != 0;

  serve::InferenceServer inference;
  if (!artifact.empty()) {
    inference.LoadArtifact(artifact).Abort("load artifact");
    if (watch) inference.StartReloadWatcher(artifact).Abort("start watcher");
  } else {
    inference.LoadModel(TrainTinyModel()).Abort("load model");
  }

  serve::NetServerOptions options = serve::NetServerOptions::FromEnv();
  if (port_flag >= 0) options.port = port_flag;
  serve::NetServer server(&inference, options);
  server.Start().Abort("start net server");

  int rows = 0, cols = 0;
  inference.model_shape(&rows, &cols);
  std::printf("AMSNET listening port=%d rows=%d cols=%d\n", server.port(),
              rows, cols);
  if (server.admin_port() != 0) {
    std::printf("AMSADMIN port=%d\n", server.admin_port());
  }
  std::fflush(stdout);

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Clean drain: admitted requests are answered before sockets close.
  server.Stop();
  inference.StopReloadWatcher();
  return 0;
}
