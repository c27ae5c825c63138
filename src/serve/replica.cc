#include "serve/replica.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/obs.h"

namespace retia::serve {

namespace {

// Counts a request the replica cannot parse and answers it with a
// kQueryReply error frame; false when that write failed.
bool ReplyProtocolError(int fd, StatusCode code, const std::string& detail) {
  RETIA_OBS_COUNTER_ADD("serve.replica.protocol_errors", 1);
  return wire::WriteFrame(
             fd, wire::MsgType::kQueryReply,
             wire::EncodeQueryReply(Result<QueryResult>::Error(code, detail)))
      .ok();
}

}  // namespace

ReplicaServer::ReplicaServer(ServeEngine* engine, SnapshotLoader loader,
                             std::string socket_path)
    : channel_(engine, std::move(loader)),
      socket_path_(std::move(socket_path)) {}

ReplicaServer::~ReplicaServer() { Stop(); }

Result<bool> ReplicaServer::Start() {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Result<bool>::Error(StatusCode::kInternal,
                               std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Result<bool>::Error(StatusCode::kInternal, "socket path too long");
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  ::unlink(socket_path_.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd_, /*backlog=*/64) < 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Result<bool>::Error(StatusCode::kInternal,
                               "bind/listen " + socket_path_ + ": " + error);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void ReplicaServer::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    const int accept_errno = errno;
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Only Stop() ends the loop: its shutdown() of the listen socket is
      // what fails the accept() above once stopping_ is set.
      if (stopping_) {
        if (fd >= 0) ::close(fd);
        return;
      }
      if (fd >= 0) {
        conns_.emplace(fd, std::thread([this, fd] { HandleConnection(fd); }));
      }
      finished.swap(finished_);
    }
    for (std::thread& thread : finished) thread.join();
    if (fd < 0 && accept_errno != EINTR && accept_errno != ECONNABORTED) {
      // Out of fds or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM): back off
      // until hung-up connections free some, then accept again.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

void ReplicaServer::HandleConnection(int fd) {
  while (true) {
    Result<wire::Frame> frame = wire::ReadFrame(fd);
    if (!frame.ok()) {
      if (frame.code() == StatusCode::kProtocolError) {
        // Framing is lost — tell the peer why, then drop the connection.
        (void)ReplyProtocolError(fd, frame.code(), frame.detail());
      }
      break;  // EOF / io error / unframable stream
    }
    RETIA_OBS_COUNTER_ADD("serve.replica.frames", 1);
    if (!HandleFrame(fd, frame.value())) break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Once stopping_ is set, Stop() owns this fd and thread and closes the
  // fd after joining; closing it here too would be a double close.
  if (stopping_) return;
  auto it = conns_.find(fd);
  finished_.push_back(std::move(it->second));
  conns_.erase(it);
  ::close(fd);
}

bool ReplicaServer::HandleFrame(int fd, const wire::Frame& frame) {
  switch (frame.type) {
    case wire::MsgType::kQueryBatch: {
      Result<std::vector<Query>> queries = wire::DecodeQueryBatch(frame.body);
      if (!queries.ok()) {
        // Frame-level damage (bad count, truncated record): the batch as a
        // whole is unanswerable, so reply with one kQueryReply error —
        // the router surfaces an unexpected-reply-type protocol error to
        // every query of the batch. Per-query failures never land here;
        // they ride inside the ResultBatch entries below.
        return ReplyProtocolError(fd, queries.code(), queries.detail());
      }
      return wire::WriteFrame(
                 fd, wire::MsgType::kResultBatch,
                 wire::EncodeResultBatch(channel_.SubmitBatch(queries.value())))
          .ok();
    }
    case wire::MsgType::kStats:
      return wire::WriteFrame(fd, wire::MsgType::kStatsReply,
                              wire::EncodeString(channel_.StatsJson().value()))
          .ok();
    case wire::MsgType::kSwap: {
      Result<std::string> prefix = wire::DecodeSwap(frame.body);
      if (!prefix.ok()) {
        RETIA_OBS_COUNTER_ADD("serve.replica.protocol_errors", 1);
      }
      const Result<int64_t> epoch =
          prefix.ok() ? channel_.Swap(prefix.value())
                      : Result<int64_t>::Error(prefix.code(), prefix.detail());
      return wire::WriteFrame(
                 fd, wire::MsgType::kSwapReply,
                 wire::EncodeSwapReply(epoch.code(),
                                       epoch.ok() ? epoch.value() : -1,
                                       epoch.detail()))
          .ok();
    }
    case wire::MsgType::kPing:
      return wire::WriteFrame(fd, wire::MsgType::kPong,
                              wire::EncodePong(channel_.Ping().value()))
          .ok();
    case wire::MsgType::kShutdown: {
      (void)wire::WriteFrame(fd, wire::MsgType::kShutdownReply, {});
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_requested_ = true;
      shutdown_cv_.notify_all();
      return false;
    }
    default:
      // A reply type arriving at the server is a peer bug; answer with a
      // protocol error and keep the connection (framing is intact).
      return ReplyProtocolError(fd, StatusCode::kProtocolError,
                                "unexpected message type at server");
  }
}

void ReplicaServer::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock,
                    [this] { return shutdown_requested_ || stopping_; });
}

void ReplicaServer::Stop() {
  std::map<int, std::thread> conns;
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
    conns.swap(conns_);
    finished.swap(finished_);
  }
  if (listen_fd_ >= 0) {
    // shutdown() (not close()) is what wakes a thread blocked in accept()
    // on Linux; the fd itself is closed only after the accept thread has
    // joined, so it cannot be reused under a still-running accept call.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (auto& [fd, thread] : conns) ::shutdown(fd, SHUT_RDWR);
  for (auto& [fd, thread] : conns) thread.join();
  for (auto& [fd, thread] : conns) ::close(fd);
  for (std::thread& thread : finished) thread.join();
  ::unlink(socket_path_.c_str());
}

}  // namespace retia::serve
