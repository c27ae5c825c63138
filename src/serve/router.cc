#include "serve/router.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/obs.h"
#include "util/check.h"
#include "util/timer.h"

namespace retia::serve {

// ---- LocalChannel ----------------------------------------------------------

LocalChannel::LocalChannel(ServeEngine* engine, SnapshotLoader loader)
    : engine_(engine), loader_(std::move(loader)) {
  RETIA_CHECK(engine_ != nullptr);
}

std::vector<Result<QueryResult>> LocalChannel::SubmitBatch(
    const std::vector<Query>& queries) {
  return engine_->SubmitBatch(queries);
}

Result<int64_t> LocalChannel::Swap(const std::string& prefix) {
  if (!loader_) {
    return Result<int64_t>::Error(StatusCode::kInternal,
                                  "replica has no snapshot loader");
  }
  // Serialized so two concurrent SwapAll rounds cannot interleave their
  // load/install pairs and leave replicas on different epochs.
  std::lock_guard<std::mutex> lock(swap_mu_);
  Result<EngineSnapshot> snapshot = loader_(prefix);
  if (!snapshot.ok()) {
    return Result<int64_t>::Error(snapshot.code(), snapshot.detail());
  }
  engine_->SwapSnapshot(snapshot.take());
  return engine_->snapshot_swaps();
}

Result<std::string> LocalChannel::StatsJson() {
  return engine_->Stats().ToJson();
}

Result<int64_t> LocalChannel::Ping() { return engine_->snapshot_swaps(); }

// ---- SocketChannel ---------------------------------------------------------

namespace {

// Dials an AF_UNIX stream socket at `path`. Returns -1 with *error set.
int DialUnix(const std::string& path, int64_t timeout_ms, std::string* error) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    *error = "socket path too long";
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    *error = std::string("connect ") + path + ": " + std::strerror(errno);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

void SetRecvTimeout(int fd, int64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

SocketChannel::SocketChannel(std::string socket_path,
                             const RouterConfig& config)
    : socket_path_(std::move(socket_path)), config_(config) {}

SocketChannel::~SocketChannel() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const int fd : idle_) ::close(fd);
  idle_.clear();
}

int SocketChannel::Checkout(std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      const int fd = idle_.back();
      idle_.pop_back();
      return fd;
    }
  }
  // Pool empty: dial rather than wait for a busy connection — a slow
  // replica already shows up as latency. Return() keeps at most
  // connections_per_replica sockets and closes the rest.
  return DialUnix(socket_path_, config_.timeout_ms, error);
}

void SocketChannel::Return(int fd, bool healthy) {
  std::lock_guard<std::mutex> lock(mu_);
  if (healthy &&
      static_cast<int64_t>(idle_.size()) < config_.connections_per_replica) {
    idle_.push_back(fd);
  } else {
    ::close(fd);
  }
}

Result<wire::Frame> SocketChannel::RoundTrip(wire::MsgType type,
                                             const std::vector<uint8_t>& body,
                                             wire::MsgType expect, bool timed) {
  std::string dial_error;
  const int fd = Checkout(&dial_error);
  if (fd < 0) {
    return Result<wire::Frame>::Error(StatusCode::kShardUnavailable,
                                      dial_error);
  }
  if (!timed) SetRecvTimeout(fd, 0);  // 0 = block until the reply lands
  Result<bool> wrote = wire::WriteFrame(fd, type, body);
  if (!wrote.ok()) {
    Return(fd, false);
    return Result<wire::Frame>::Error(wrote.code(), wrote.detail());
  }
  Result<wire::Frame> reply = wire::ReadFrame(fd);
  if (!reply.ok()) {
    Return(fd, false);
    return reply;
  }
  if (reply.value().type != expect) {
    Return(fd, false);
    return Result<wire::Frame>::Error(StatusCode::kProtocolError,
                                      "unexpected reply type");
  }
  // A pooled connection always carries the per-query timeout.
  if (!timed) SetRecvTimeout(fd, config_.timeout_ms);
  Return(fd, true);
  return reply;
}

std::vector<Result<QueryResult>> SocketChannel::SubmitBatch(
    const std::vector<Query>& queries) {
  if (queries.empty()) return {};
  const auto fail = [&queries](StatusCode code, const std::string& detail) {
    std::vector<Result<QueryResult>> out;
    out.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      out.push_back(Result<QueryResult>::Error(code, detail));
    }
    return out;
  };
  Result<wire::Frame> reply =
      RoundTrip(wire::MsgType::kQueryBatch, wire::EncodeQueryBatch(queries),
                wire::MsgType::kResultBatch);
  if (!reply.ok()) return fail(reply.code(), reply.detail());
  Result<std::vector<Result<QueryResult>>> decoded =
      wire::DecodeResultBatch(reply.value().body);
  if (!decoded.ok()) return fail(decoded.code(), decoded.detail());
  if (decoded.value().size() != queries.size()) {
    return fail(StatusCode::kProtocolError,
                "result batch count mismatches query batch");
  }
  return decoded.take();
}

Result<int64_t> SocketChannel::Swap(const std::string& prefix) {
  // Snapshot loading legitimately exceeds the per-query timeout; swap
  // round-trips block until the replica acks.
  Result<wire::Frame> reply =
      RoundTrip(wire::MsgType::kSwap, wire::EncodeSwap(prefix),
                wire::MsgType::kSwapReply, /*timed=*/false);
  if (!reply.ok()) return Result<int64_t>::Error(reply.code(), reply.detail());
  return wire::DecodeSwapReply(reply.value().body);
}

Result<std::string> SocketChannel::StatsJson() {
  Result<wire::Frame> reply = RoundTrip(wire::MsgType::kStats, {},
                                        wire::MsgType::kStatsReply);
  if (!reply.ok()) {
    return Result<std::string>::Error(reply.code(), reply.detail());
  }
  return wire::DecodeString(reply.value().body);
}

Result<int64_t> SocketChannel::Ping() {
  Result<wire::Frame> reply =
      RoundTrip(wire::MsgType::kPing, {}, wire::MsgType::kPong);
  if (!reply.ok()) return Result<int64_t>::Error(reply.code(), reply.detail());
  return wire::DecodePong(reply.value().body);
}

void SocketChannel::Shutdown() {
  std::string dial_error;
  const int fd = Checkout(&dial_error);
  if (fd < 0) return;
  (void)wire::WriteFrame(fd, wire::MsgType::kShutdown, {});
  (void)wire::ReadFrame(fd);  // wait for the ack (or EOF) so exit is clean
  Return(fd, false);
}

// ---- Router ----------------------------------------------------------------

namespace {

// Queries per QueryBatch frame when RouteBatch ships a shard's group.
constexpr size_t kRouteBatchChunk = 64;
static_assert(kRouteBatchChunk <= wire::kMaxWireBatch);

std::vector<int64_t> ShardIds(size_t n) {
  std::vector<int64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

}  // namespace

Router::Router(std::vector<std::unique_ptr<ReplicaChannel>> replicas,
               const RouterConfig& /*config*/)
    : replicas_(std::move(replicas)),
      shard_map_(ShardIds(replicas_.size())),
      stats_(/*max_batch=*/kRouteBatchChunk, StatsScope::kRouter) {
  RETIA_CHECK_MSG(!replicas_.empty(), "router needs at least one replica");
}

Result<QueryResult> Router::Route(const Query& query) {
  RETIA_OBS_COUNTER_ADD("serve.router.requests", 1);
  util::Timer timer;
  const int64_t shard = shard_map_.ShardFor(query.s);
  // Shard selection is the router's (tiny) queue-wait analog; the channel
  // round-trip is its compute. Recording through the same StatsRecorder
  // the engine uses keeps the accounting split defined in exactly one
  // place (stats.cc).
  stats_.RecordQueueWait(timer.Millis());
  std::vector<Result<QueryResult>> answer = ShipToShard(shard, {query});
  stats_.RecordRequest(timer.Millis());
  return std::move(answer.front());
}

std::vector<Result<QueryResult>> Router::ShipToShard(
    int64_t shard, const std::vector<Query>& frame) {
  const auto size = static_cast<int64_t>(frame.size());
  RETIA_OBS_COUNTER_ADD("serve.router.batch.frames", 1);
  RETIA_OBS_COUNTER_ADD("serve.router.batch.queries", size);
  RETIA_OBS_HIST_RECORD("serve.router.batch.size", size);
  util::Timer channel_timer;
  std::vector<Result<QueryResult>> replies =
      replicas_[shard]->SubmitBatch(frame);
  stats_.RecordCompute(channel_timer.Millis());
  stats_.RecordBatch(size);
  RETIA_CHECK_EQ(replies.size(), frame.size());
  for (Result<QueryResult>& reply : replies) {
    if (reply.ok()) {
      reply.value().shard = shard;
    } else if (reply.code() == StatusCode::kShardUnavailable) {
      RETIA_OBS_COUNTER_ADD("serve.router.unavailable", 1);
    }
  }
  return replies;
}

std::vector<Result<QueryResult>> Router::RouteBatch(
    const std::vector<Query>& queries) {
  RETIA_OBS_COUNTER_ADD("serve.router.requests",
                        static_cast<int64_t>(queries.size()));
  util::Timer timer;
  std::vector<std::optional<Result<QueryResult>>> answers(queries.size());
  // Group by shard, preserving submission order within each group.
  std::vector<std::vector<Query>> by_shard(replicas_.size());
  std::vector<std::vector<size_t>> slots(replicas_.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t shard = shard_map_.ShardFor(queries[i].s);
    by_shard[shard].push_back(queries[i]);
    slots[shard].push_back(i);
  }
  stats_.RecordQueueWait(timer.Millis());
  for (size_t shard = 0; shard < by_shard.size(); ++shard) {
    const std::vector<Query>& group = by_shard[shard];
    for (size_t begin = 0; begin < group.size(); begin += kRouteBatchChunk) {
      const size_t end = std::min(group.size(), begin + kRouteBatchChunk);
      std::vector<Result<QueryResult>> replies =
          ShipToShard(static_cast<int64_t>(shard),
                      std::vector<Query>(group.begin() + begin,
                                         group.begin() + end));
      for (size_t i = 0; i < replies.size(); ++i) {
        answers[slots[shard][begin + i]] = std::move(replies[i]);
      }
    }
  }
  std::vector<Result<QueryResult>> results;
  results.reserve(answers.size());
  for (std::optional<Result<QueryResult>>& answer : answers) {
    stats_.RecordRequest(timer.Millis());
    results.push_back(std::move(*answer));
  }
  return results;
}

Result<int64_t> Router::SwapAll(const std::string& prefix) {
  RETIA_OBS_COUNTER_ADD("serve.router.swaps", 1);
  int64_t epoch = -1;
  for (size_t shard = 0; shard < replicas_.size(); ++shard) {
    Result<int64_t> swapped = replicas_[shard]->Swap(prefix);
    if (!swapped.ok()) {
      return Result<int64_t>::Error(
          swapped.code(), "shard " + std::to_string(shard) +
                              " swap failed: " + swapped.detail());
    }
    if (epoch < 0) {
      epoch = swapped.value();
    } else if (swapped.value() != epoch) {
      return Result<int64_t>::Error(
          StatusCode::kInternal,
          "shard " + std::to_string(shard) + " swapped to epoch " +
              std::to_string(swapped.value()) + ", fleet is on " +
              std::to_string(epoch));
    }
  }
  return epoch;
}

std::vector<Result<int64_t>> Router::PingAll() {
  std::vector<Result<int64_t>> epochs;
  epochs.reserve(replicas_.size());
  for (auto& replica : replicas_) epochs.push_back(replica->Ping());
  return epochs;
}

std::string Router::StatsJson() {
  std::ostringstream out;
  out << "{\"router\":" << stats_.Snapshot(CacheCounters{}).ToJson()
      << ",\"replicas\":[";
  for (size_t shard = 0; shard < replicas_.size(); ++shard) {
    if (shard > 0) out << ",";
    Result<std::string> stats = replicas_[shard]->StatsJson();
    if (stats.ok()) {
      out << stats.value();
    } else {
      out << "{\"error\":\"" << StatusCodeName(stats.code()) << "\"}";
    }
  }
  out << "]}";
  return out.str();
}

}  // namespace retia::serve
