// Multi-process sharded serving demo (docs/SERVING_TOPOLOGY.md): a
// router process consistent-hashes zipfian query traffic across model
// replicas it reaches over the serve::wire binary protocol on AF_UNIX
// sockets. The same binary plays every role:
//
//   serve_cluster prepare <dir>
//       Builds the deterministic cluster dataset and two frozen model
//       snapshots (<dir>/snap_a, <dir>/snap_b — epoch 0 and the hot-swap
//       target). Random-init weights: serving latency and the swap/drop
//       invariants are weight-agnostic, so the demo skips training.
//   serve_cluster replica <dir> <socket>
//       One replica process: loads snap_a, serves it on <socket>, and
//       answers swap requests by reloading whichever prefix the router
//       pushes. Prints READY when the socket is listening; exits on a
//       shutdown frame.
//   serve_cluster load <dir> <socket,socket,...> [flags]
//       The router + load generator: zipfian subjects over N clients,
//       optional coordinated hot-swap (--swap-after) or replica SIGKILL
//       (--kill-after/--kill-pid) mid-load, and a one-line JSON summary
//       on stdout. --expect-zero-drop / --expect-unavailable turn the
//       summary's invariants into the exit code, which is what
//       scripts/check.sh's multi-process smoke gates on.
//
// Example (two shards, coordinated hot-swap under load):
//   ./serve_cluster prepare /tmp/cluster
//   ./serve_cluster replica /tmp/cluster /tmp/cluster/r0.sock &
//   ./serve_cluster replica /tmp/cluster /tmp/cluster/r1.sock &
//   ./serve_cluster load /tmp/cluster /tmp/cluster/r0.sock,/tmp/cluster/r1.sock
//       --queries 2000 --swap-after 500 --expect-zero-drop --shutdown

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/result.h"
#include "core/retia.h"
#include "graph/graph_cache.h"
#include "serve/engine.h"
#include "serve/query.h"
#include "serve/replica.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "tkg/synthetic.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace retia;

// Every process regenerates the same dataset from this config, so the
// replicas and the router agree on the id space without shipping data.
tkg::SyntheticConfig ClusterDataConfig() {
  tkg::SyntheticConfig config;
  config.name = "serve-cluster";
  config.num_entities = 200;
  config.num_relations = 8;
  config.num_timestamps = 24;
  config.facts_per_timestamp = 60;
  config.num_schemas = 120;
  config.max_period = 6;
  config.seed = 29;
  return config;
}

core::RetiaConfig ClusterModelConfig(const tkg::TkgDataset& dataset,
                                     int64_t seed) {
  core::RetiaConfig config;
  config.num_entities = dataset.num_entities();
  config.num_relations = dataset.num_relations();
  config.dim = 16;
  config.history_len = 2;
  config.conv_kernels = 4;
  config.seed = seed;
  return config;
}

serve::SnapshotLoader MakeLoader(const tkg::TkgDataset* dataset) {
  return [dataset](const std::string& prefix)
             -> serve::Result<serve::EngineSnapshot> {
    std::unique_ptr<core::RetiaModel> model;
    const ckpt::Result loaded = serve::LoadModelSnapshot(prefix, &model);
    if (!loaded.ok()) {
      return serve::Result<serve::EngineSnapshot>::Error(
          serve::StatusCode::kInternal, loaded.ToString());
    }
    serve::EngineSnapshot snapshot;
    snapshot.dataset = std::make_unique<tkg::TkgDataset>(*dataset);
    snapshot.graph_cache =
        std::make_unique<graph::GraphCache>(snapshot.dataset.get());
    snapshot.model = std::move(model);
    return snapshot;
  };
}

int Prepare(const std::string& dir) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(ClusterDataConfig());
  core::RetiaModel model_a(ClusterModelConfig(dataset, /*seed=*/3));
  core::RetiaModel model_b(ClusterModelConfig(dataset, /*seed=*/99));
  for (const auto& [model, name] :
       {std::pair<const core::RetiaModel*, const char*>{&model_a, "snap_a"},
        {&model_b, "snap_b"}}) {
    const ckpt::Result saved =
        serve::SaveModelSnapshot(*model, dir + "/" + name, dataset.name());
    if (!saved.ok()) {
      std::cerr << "prepare: " << saved.ToString() << "\n";
      return 1;
    }
  }
  std::cout << "prepared " << dir << "/snap_a and snap_b ("
            << dataset.num_entities() << " entities)\n";
  return 0;
}

int Replica(const std::string& dir, const std::string& socket_path) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(ClusterDataConfig());
  serve::SnapshotLoader loader = MakeLoader(&dataset);
  serve::Result<serve::EngineSnapshot> initial = loader(dir + "/snap_a");
  if (!initial.ok()) {
    std::cerr << "replica: " << initial.ToString() << "\n";
    return 1;
  }
  serve::ServeEngine engine(initial.take(), serve::ServeConfig{});
  serve::ReplicaServer server(&engine, loader, socket_path);
  serve::Result<bool> started = server.Start();
  if (!started.ok()) {
    std::cerr << "replica: " << started.ToString() << "\n";
    return 1;
  }
  std::cout << "READY " << socket_path << std::endl;  // flushed: parent waits
  server.WaitForShutdown();
  server.Stop();
  std::cout << "replica " << socket_path
            << " exiting, stats: " << engine.Stats().ToJson() << "\n";
  return 0;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

struct LoadFlags {
  int64_t queries = 2000;
  int64_t clients = 4;
  int64_t k = 5;
  // Client-side batch: each client assembles this many queries and ships
  // them through Router::RouteBatch (1 = one query per frame).
  int64_t batch = 1;
  double alpha = 1.1;
  int64_t timeout_ms = 5000;
  int64_t swap_after = -1;   // completed-query threshold for SwapAll
  int64_t kill_after = -1;   // completed-query threshold for SIGKILL
  int64_t kill_pid = -1;     // replica process to SIGKILL
  bool expect_zero_drop = false;
  bool expect_unavailable = false;
  bool shutdown = false;  // send shutdown frames to replicas when done
};

int Load(const std::string& dir, const std::string& sockets_csv,
         const LoadFlags& flags) {
  const tkg::TkgDataset dataset = tkg::GenerateSynthetic(ClusterDataConfig());
  const std::vector<std::string> sockets = SplitCsv(sockets_csv);
  if (sockets.empty()) {
    std::cerr << "load: no replica sockets given\n";
    return 2;
  }
  serve::RouterConfig router_config;
  router_config.timeout_ms = flags.timeout_ms;

  std::vector<std::unique_ptr<serve::ReplicaChannel>> channels;
  std::vector<serve::SocketChannel*> raw_channels;
  for (const std::string& path : sockets) {
    auto channel = std::make_unique<serve::SocketChannel>(path, router_config);
    raw_channels.push_back(channel.get());
    channels.push_back(std::move(channel));
  }
  serve::Router router(std::move(channels), router_config);

  // Wait for every replica to answer a ping (they print READY before we
  // run, but the socket may still be a hair behind on a loaded machine).
  for (size_t shard = 0; shard < raw_channels.size(); ++shard) {
    bool up = false;
    for (int attempt = 0; attempt < 100; ++attempt) {
      if (raw_channels[shard]->Ping().ok()) {
        up = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!up) {
      std::cerr << "load: replica " << sockets[shard] << " never came up\n";
      return 2;
    }
  }

  const int64_t t = dataset.test_times().front();
  std::mutex mu;
  std::vector<double> latencies_ms;
  int64_t ok = 0, unavailable = 0, other = 0, cache_hits = 0;
  std::atomic<int64_t> completed{0};

  // Mid-load actions armed on the completed-query counter.
  std::atomic<bool> swap_fired{false}, kill_fired{false};
  int64_t swap_epoch = -1;
  std::string swap_error;

  util::Timer wall;
  std::vector<std::thread> clients;
  for (int64_t c = 0; c < flags.clients; ++c) {
    clients.emplace_back([&, c] {
      // The first queries % clients clients take one query more, so the
      // clients send exactly flags.queries between them.
      const int64_t per_client =
          flags.queries / flags.clients + (c < flags.queries % flags.clients);
      util::Rng rng(static_cast<uint64_t>(1000 + c));
      for (int64_t i = 0; i < per_client;) {
        // Assemble up to `batch` queries and ship them in one RouteBatch
        // (one wire frame per shard group).
        const int64_t group = std::min(flags.batch, per_client - i);
        std::vector<serve::Query> queries;
        queries.reserve(group);
        for (int64_t b = 0; b < group; ++b) {
          const int64_t s = rng.Zipf(dataset.num_entities(), flags.alpha);
          const int64_t r =
              rng.UniformInt(0, 2 * dataset.num_relations() - 1);
          queries.push_back(serve::Query::Entity(s, r, t, flags.k));
        }
        util::Timer timer;
        const std::vector<serve::Result<serve::QueryResult>> results =
            router.RouteBatch(queries);
        // Every query in the group experienced the group's latency.
        const double ms = timer.Millis();
        std::lock_guard<std::mutex> lock(mu);
        for (const serve::Result<serve::QueryResult>& result : results) {
          latencies_ms.push_back(ms);
          if (result.ok()) {
            ++ok;
            if (result.value().cache_hit) ++cache_hits;
          } else if (result.code() == serve::StatusCode::kShardUnavailable) {
            ++unavailable;
          } else {
            ++other;
            if (other == 1) {
              std::cerr << "load: unexpected error: " << result.ToString()
                        << "\n";
            }
          }
        }
        completed.fetch_add(group, std::memory_order_relaxed);
        i += group;
      }
    });
  }

  // Coordinator: fires the swap and/or the kill once the load crosses the
  // configured thresholds, while the clients keep hammering the router.
  std::thread coordinator([&] {
    bool want_swap = flags.swap_after >= 0;
    bool want_kill = flags.kill_after >= 0 && flags.kill_pid > 0;
    while (want_swap || want_kill) {
      const int64_t done = completed.load(std::memory_order_relaxed);
      if (done >= flags.queries) break;
      if (want_swap && done >= flags.swap_after && !swap_fired.exchange(true)) {
        serve::Result<int64_t> swapped = router.SwapAll(dir + "/snap_b");
        if (swapped.ok()) {
          swap_epoch = swapped.value();
        } else {
          swap_error = swapped.ToString();
        }
        want_swap = false;
      }
      if (want_kill && done >= flags.kill_after && !kill_fired.exchange(true)) {
        ::kill(static_cast<pid_t>(flags.kill_pid), SIGKILL);
        want_kill = false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (std::thread& client : clients) client.join();
  coordinator.join();
  const double wall_seconds = wall.Seconds();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto quantile = [&](double q) {
    if (latencies_ms.empty()) return 0.0;
    return latencies_ms[static_cast<size_t>(q * (latencies_ms.size() - 1))];
  };
  const int64_t total = ok + unavailable + other;
  std::ostringstream json;
  json << "{\"shards\":" << router.num_shards()
       << ",\"clients\":" << flags.clients << ",\"completed\":" << total
       << ",\"ok\":" << ok << ",\"unavailable\":" << unavailable
       << ",\"other_errors\":" << other << ",\"cache_hits\":" << cache_hits
       << ",\"dropped\":" << (flags.queries - total)
       << ",\"swap_epoch\":" << swap_epoch
       << ",\"wire_batch\":" << flags.batch
       << ",\"zipf_alpha\":" << flags.alpha
       << ",\"wall_seconds\":" << wall_seconds
       << ",\"qps\":" << (wall_seconds > 0 ? total / wall_seconds : 0.0)
       << ",\"p50_ms\":" << quantile(0.50) << ",\"p99_ms\":" << quantile(0.99)
       << "}";
  std::cout << json.str() << std::endl;
  std::cerr << "router stats: " << router.StatsJson() << "\n";

  if (flags.shutdown) {
    for (serve::SocketChannel* channel : raw_channels) channel->Shutdown();
  }

  if (!swap_error.empty()) {
    std::cerr << "load: hot-swap failed: " << swap_error << "\n";
    return 1;
  }
  if (flags.swap_after >= 0 && swap_epoch < 1) {
    std::cerr << "load: swap never completed (epoch " << swap_epoch << ")\n";
    return 1;
  }
  if (flags.expect_zero_drop && (ok != total || total != flags.queries)) {
    std::cerr << "load: zero-drop violated: ok=" << ok << " total=" << total
              << " expected=" << flags.queries << "\n";
    return 1;
  }
  if (flags.expect_unavailable) {
    // A killed replica's arc must degrade to kShardUnavailable — visibly,
    // without hanging the router and without any *other* failure mode.
    if (unavailable == 0) {
      std::cerr << "load: expected kShardUnavailable responses, saw none\n";
      return 1;
    }
    if (ok == 0 || other != 0) {
      std::cerr << "load: surviving shards misbehaved: ok=" << ok
                << " other_errors=" << other << "\n";
      return 1;
    }
  } else if (other != 0) {
    std::cerr << "load: " << other << " unexpected errors\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: serve_cluster prepare <dir>\n"
              << "       serve_cluster replica <dir> <socket>\n"
              << "       serve_cluster load <dir> <socket,...> [--queries N]"
              << " [--clients C] [--k K] [--batch B] [--alpha A]"
              << " [--timeout-ms T]\n"
              << "           [--swap-after N] [--kill-after N --kill-pid P]\n"
              << "           [--expect-zero-drop] [--expect-unavailable]"
              << " [--shutdown]\n";
    return 2;
  }
  const std::string mode = argv[1];
  const std::string dir = argv[2];
  if (mode == "prepare") return Prepare(dir);
  if (mode == "replica") {
    if (argc < 4) {
      std::cerr << "replica: missing socket path\n";
      return 2;
    }
    return Replica(dir, argv[3]);
  }
  if (mode == "load") {
    if (argc < 4) {
      std::cerr << "load: missing socket list\n";
      return 2;
    }
    LoadFlags flags;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> int64_t {
        if (i + 1 >= argc) {
          std::cerr << "load: " << arg << " needs a value\n";
          std::exit(2);
        }
        return std::strtoll(argv[++i], nullptr, 10);
      };
      if (arg == "--queries") flags.queries = next();
      else if (arg == "--clients") flags.clients = next();
      else if (arg == "--k") flags.k = next();
      else if (arg == "--batch") flags.batch = next();
      else if (arg == "--alpha") {
        if (i + 1 >= argc) {
          std::cerr << "load: --alpha needs a value\n";
          return 2;
        }
        flags.alpha = std::strtod(argv[++i], nullptr);
      }
      else if (arg == "--timeout-ms") flags.timeout_ms = next();
      else if (arg == "--swap-after") flags.swap_after = next();
      else if (arg == "--kill-after") flags.kill_after = next();
      else if (arg == "--kill-pid") flags.kill_pid = next();
      else if (arg == "--expect-zero-drop") flags.expect_zero_drop = true;
      else if (arg == "--expect-unavailable") flags.expect_unavailable = true;
      else if (arg == "--shutdown") flags.shutdown = true;
      else {
        std::cerr << "load: unknown flag " << arg << "\n";
        return 2;
      }
    }
    if (flags.clients < 1 || flags.batch < 1) {
      std::cerr << "load: --clients and --batch must be at least 1\n";
      return 2;
    }
    return Load(dir, argv[3], flags);
  }
  std::cerr << "unknown mode '" << mode << "'\n";
  return 2;
}
