#ifndef RETIA_SERVE_REPLICA_H_
#define RETIA_SERVE_REPLICA_H_

// retia::serve::ReplicaServer — one model replica's wire-protocol
// endpoint (docs/SERVING_TOPOLOGY.md). Listens on an AF_UNIX stream
// socket and is a frame codec in front of one LocalChannel it owns over
// the host's ServeEngine: query batches, swaps, stats and pings decode
// onto that channel and its answers encode back, so a socket replica
// answers every request with the code an in-process replica runs.
//
// Robustness contract: nothing a peer can put on the socket crashes the
// process. Malformed frames are answered with a kProtocolError reply
// (when the stream is still framable) or the connection is dropped; both
// bump `serve.replica.protocol_errors`. One thread per accepted
// connection — the router pools a handful of connections per replica, so
// the thread count stays small and requests on separate connections batch
// together inside the engine as usual.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/engine.h"
#include "serve/query.h"
#include "serve/router.h"
#include "serve/wire.h"

namespace retia::serve {

class ReplicaServer {
 public:
  // `engine` must outlive the server; `loader` (nullable) rebuilds an
  // EngineSnapshot from a swap request's prefix. The socket path is
  // unlinked before binding, so a stale socket from a killed predecessor
  // does not block startup.
  ReplicaServer(ServeEngine* engine, SnapshotLoader loader,
                std::string socket_path);
  ~ReplicaServer();

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  // Binds, listens, and starts the accept loop. Returns an error (rather
  // than dying) when the socket cannot be created.
  Result<bool> Start();

  // Blocks until a peer sends a kShutdown frame or Stop() is called.
  void WaitForShutdown();

  // Stops accepting, closes every connection, joins all threads, and
  // unlinks the socket. Idempotent; also run by the destructor.
  void Stop();

  const std::string& socket_path() const { return socket_path_; }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  // Answers one decoded frame on `fd`. Returns false when the connection
  // should close (shutdown frame or unframable stream).
  bool HandleFrame(int fd, const wire::Frame& frame);

  LocalChannel channel_;
  std::string socket_path_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::mutex mu_;  // guards conns_, finished_, stopping/shutdown flags
  // Live connections by fd. A handler whose peer hung up closes its own fd
  // and moves its thread to finished_, which the accept loop joins; once
  // stopping_ is set, Stop() owns (shuts down, joins, closes) the rest.
  std::map<int, std::thread> conns_;
  std::vector<std::thread> finished_;
  bool stopping_ = false;
  bool shutdown_requested_ = false;
  std::condition_variable shutdown_cv_;
};

}  // namespace retia::serve

#endif  // RETIA_SERVE_REPLICA_H_
