#ifndef RETIA_SERVE_ROUTER_H_
#define RETIA_SERVE_ROUTER_H_

// retia::serve::Router — the sharded serving tier's front door
// (docs/SERVING_TOPOLOGY.md). A Router owns one ReplicaChannel per model
// replica and a consistent-hash ShardMap over the subject entity: every
// query routes to exactly one replica, so a response is always answered
// by a single snapshot epoch (old-or-new across a hot-swap, never mixed).
//
// Channels come in two flavours with identical semantics: LocalChannel
// calls a ServeEngine in-process (the unit-test and single-process path),
// SocketChannel speaks the serve::wire binary protocol over an AF_UNIX
// stream socket to a ReplicaServer in another process, which answers
// through a LocalChannel of its own. The router treats them uniformly;
// serve_router_test pins that the two answer bit-identical results for
// the same snapshot.
//
// One query path: Route ships its query as a one-query QueryBatch frame
// through the same per-shard code RouteBatch uses, so every query the
// router forwards rides ReplicaChannel::SubmitBatch.
//
// Failure model: a replica that cannot be reached (connect/io/timeout
// failure) degrades its arc of the ring to kShardUnavailable. The router
// performs no failover — a dead shard is a visible error, not silent load
// shift — and reconnects lazily, so a restarted replica heals without
// router intervention.
//
// Coordinated hot-swap: SwapAll() pushes one snapshot prefix to every
// replica and succeeds only when all of them installed it and agree on the
// resulting epoch. Each replica's own SwapSnapshot is zero-downtime, so no
// request is dropped while the fleet transitions; during the transition a
// response comes from whichever epoch its one replica is on.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "serve/query.h"
#include "serve/shard_map.h"
#include "serve/stats.h"
#include "serve/wire.h"

namespace retia::serve {

// Knobs of the SocketChannels behind a Router; the defaults here are the
// single source of truth.
struct RouterConfig {
  // Pooled sockets per SocketChannel replica. A query that finds the pool
  // empty dials a fresh connection instead of waiting; on return, sockets
  // beyond this count are closed instead of pooled.
  int64_t connections_per_replica = 4;
  // SO_RCVTIMEO per reply read: a replica that takes longer (or was
  // SIGKILLed mid-request) resolves to kShardUnavailable instead of
  // hanging the router.
  int64_t timeout_ms = 5000;
};

// One replica as the router sees it. Implementations must be safe to call
// from many router threads concurrently.
class ReplicaChannel {
 public:
  virtual ~ReplicaChannel() = default;

  // Answers a batch of typed queries in one exchange; results align with
  // `queries` by index, and per-query failures degrade only their own
  // slot (a whole-channel failure replicates its error into every slot).
  // `queries` must not exceed wire::kMaxWireBatch — the router chunks.
  virtual std::vector<Result<QueryResult>> SubmitBatch(
      const std::vector<Query>& queries) = 0;

  // Installs the snapshot at `prefix` and returns the replica's post-swap
  // epoch.
  virtual Result<int64_t> Swap(const std::string& prefix) = 0;

  // The replica's ServeStats JSON blob.
  virtual Result<std::string> StatsJson() = 0;

  // Liveness probe; returns the replica's current snapshot epoch.
  virtual Result<int64_t> Ping() = 0;
};

// In-process channel over a ServeEngine the caller owns. `loader` rebuilds
// an EngineSnapshot from a swap request's prefix (may be null, in which
// case Swap reports kInternal). Engine must outlive the channel.
class LocalChannel : public ReplicaChannel {
 public:
  LocalChannel(ServeEngine* engine, SnapshotLoader loader = nullptr);

  std::vector<Result<QueryResult>> SubmitBatch(
      const std::vector<Query>& queries) override;
  Result<int64_t> Swap(const std::string& prefix) override;
  Result<std::string> StatsJson() override;
  Result<int64_t> Ping() override;

 private:
  ServeEngine* engine_;
  SnapshotLoader loader_;
  std::mutex swap_mu_;  // serializes loader + SwapSnapshot pairs
};

// Channel to a ReplicaServer over an AF_UNIX stream socket, speaking the
// serve::wire protocol. Maintains a lazy pool of
// config.connections_per_replica sockets; a failed connection is closed
// and re-dialed on the next checkout, so a restarted replica heals
// transparently. Every reply read is bounded by config.timeout_ms.
class SocketChannel : public ReplicaChannel {
 public:
  SocketChannel(std::string socket_path, const RouterConfig& config);
  ~SocketChannel() override;

  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  // One kQueryBatch round-trip over a pooled connection; the replica's
  // kResultBatch reply carries per-query statuses. A channel failure (or
  // a reply whose entry count mismatches) degrades every slot.
  std::vector<Result<QueryResult>> SubmitBatch(
      const std::vector<Query>& queries) override;
  Result<int64_t> Swap(const std::string& prefix) override;
  Result<std::string> StatsJson() override;
  Result<int64_t> Ping() override;

  // Sends a shutdown frame (best-effort) so the replica can exit cleanly.
  void Shutdown();

 private:
  // One round-trip: checkout a connection, write `request`, read one
  // reply frame of type `expect`. On any channel error the connection is
  // discarded. Swap round-trips disable the read timeout (snapshot loads
  // legitimately exceed it).
  Result<wire::Frame> RoundTrip(wire::MsgType type,
                                const std::vector<uint8_t>& body,
                                wire::MsgType expect, bool timed = true);

  // Pops a pooled connection, or dials a new one when the pool is empty
  // (-1 on failure). Dialing happens outside the lock.
  int Checkout(std::string* error);
  void Return(int fd, bool healthy);

  std::string socket_path_;
  RouterConfig config_;
  std::mutex mu_;
  std::vector<int> idle_;  // pooled healthy connections
};

// The shard router. Thread-safe: Route/SwapAll/StatsJson/PingAll may be
// called concurrently from any threads.
class Router {
 public:
  // `replicas[i]` serves shard id i on the ring. Both RouterConfig knobs
  // act inside the SocketChannels, so the router itself keeps no copy.
  Router(std::vector<std::unique_ptr<ReplicaChannel>> replicas,
         const RouterConfig& config);

  // Routes the query to ShardFor(query.s) as a one-query frame and
  // returns that replica's answer with QueryResult::shard stamped.
  // Validation errors come back from the replica's engine with the usual
  // taxonomy; channel failures surface as kShardUnavailable.
  Result<QueryResult> Route(const Query& query);

  // Routes a caller-assembled batch: queries are grouped by shard, each
  // group ships in QueryBatch frames of at most 64 queries, and the
  // answers come back aligned with `queries` by index (shard
  // stamped, same per-query semantics as Route). One frame per
  // same-shard group instead of one round-trip per query is the serving
  // tier's high-throughput path (see docs/SERVING_TOPOLOGY.md).
  std::vector<Result<QueryResult>> RouteBatch(
      const std::vector<Query>& queries);

  // Coordinated hot-swap: pushes `prefix` to every replica (serially, so
  // a failure aborts before touching the remaining fleet) and returns the
  // common post-swap epoch. Fails with the first replica's error, or
  // kInternal if replicas disagree on the epoch afterwards.
  Result<int64_t> SwapAll(const std::string& prefix);

  // Per-replica liveness probe; element i is replica i's epoch.
  std::vector<Result<int64_t>> PingAll();

  // {"router": {...aggregated router stats...}, "replicas": [...]} — the
  // replicas array holds each replica's own ServeStats JSON (or an error
  // string for unreachable ones).
  std::string StatsJson();

  int64_t num_shards() const { return shard_map_.num_shards(); }
  int64_t ShardFor(int64_t subject) const {
    return shard_map_.ShardFor(subject);
  }

 private:
  // Ships one QueryBatch frame (at most 64 queries, all owned by `shard`)
  // and returns its answers aligned with `frame`, the shard stamped on ok
  // ones. The router's per-frame accounting lives here alone.
  std::vector<Result<QueryResult>> ShipToShard(
      int64_t shard, const std::vector<Query>& frame);

  std::vector<std::unique_ptr<ReplicaChannel>> replicas_;
  ShardMap shard_map_;
  StatsRecorder stats_;  // StatsScope::kRouter
};

}  // namespace retia::serve

#endif  // RETIA_SERVE_ROUTER_H_
