#include "serve/wire.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "util/check.h"

namespace retia::serve::wire {

namespace {

// ---- Little-endian primitives ---------------------------------------------

void PutU8(uint8_t v, std::vector<uint8_t>* out) { out->push_back(v); }

void PutU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v & 0xff));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutI64(int64_t v, std::vector<uint8_t>* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

void PutF32(float v, std::vector<uint8_t>* out) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits, out);
}

// Bounds-checked reader over a body buffer. Every Read* returns false once
// the buffer is exhausted and the cursor stays put, so a decoder can bail
// with a single "truncated" error.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > size_) return false;
    *v = data_[pos_++];
    return true;
  }

  bool ReadU16(uint16_t* v) {
    if (pos_ + 2 > size_) return false;
    *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t raw;
    if (!ReadU64(&raw)) return false;
    *v = static_cast<int64_t>(raw);
    return true;
  }

  bool ReadF32(float* v) {
    uint32_t bits;
    if (!ReadU32(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ReadBytes(size_t n, std::string* out) {
    if (pos_ + n > size_) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  // A reader over the next n bytes, which this one skips.
  bool ReadSub(size_t n, Reader* sub) {
    if (pos_ + n > size_) return false;
    *sub = Reader(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t Remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

template <typename T>
Result<T> Malformed(const std::string& what) {
  return Result<T>::Error(StatusCode::kProtocolError, what);
}

// The Query record (u8 kind + four i64 fields) behind EncodeQuery,
// DecodeQuery and both batch codecs.
constexpr size_t kQueryRecordBytes = 33;

void PutQuery(const Query& query, std::vector<uint8_t>* out) {
  PutU8(static_cast<uint8_t>(query.kind), out);
  PutI64(query.s, out);
  PutI64(query.r_or_o, out);
  PutI64(query.t, out);
  PutI64(query.k, out);
}

Result<Query> ReadQuery(Reader* reader) {
  uint8_t kind = 0;
  Query query;
  if (!reader->ReadU8(&kind) || !reader->ReadI64(&query.s) ||
      !reader->ReadI64(&query.r_or_o) || !reader->ReadI64(&query.t) ||
      !reader->ReadI64(&query.k)) {
    return Malformed<Query>("truncated query record");
  }
  if (kind > static_cast<uint8_t>(QueryKind::kRelation)) {
    return Malformed<Query>("unknown query kind");
  }
  query.kind = static_cast<QueryKind>(kind);
  return query;
}

// The QueryReply record behind EncodeQueryReply, DecodeQueryReply and the
// entries of a result batch. Its reader spans exactly one record.
void PutQueryReply(const Result<QueryResult>& result,
                   std::vector<uint8_t>* out) {
  PutU8(static_cast<uint8_t>(result.code()), out);
  if (result.ok()) {
    const QueryResult& value = result.value();
    PutI64(value.epoch, out);
    PutU8(value.cache_hit ? 1 : 0, out);
    PutU16(static_cast<uint16_t>(value.candidates.size()), out);
    for (const ScoredCandidate& candidate : value.candidates) {
      PutI64(candidate.id, out);
      PutF32(candidate.score, out);
    }
  } else {
    const std::string& detail = result.detail();
    const auto len =
        static_cast<uint16_t>(std::min<size_t>(detail.size(), 0xffff));
    PutU16(len, out);
    out->insert(out->end(), detail.begin(), detail.begin() + len);
  }
}

Result<QueryResult> ReadQueryReply(Reader* reader) {
  uint8_t code = 0;
  if (!reader->ReadU8(&code)) {
    return Malformed<QueryResult>("empty query reply");
  }
  if (code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Malformed<QueryResult>("unknown status code in reply");
  }
  const auto status = static_cast<StatusCode>(code);
  if (status != StatusCode::kOk) {
    uint16_t len = 0;
    std::string detail;
    if (!reader->ReadU16(&len) || !reader->ReadBytes(len, &detail)) {
      return Malformed<QueryResult>("truncated error detail in reply");
    }
    return Result<QueryResult>::Error(status, detail);
  }
  QueryResult value;
  uint8_t cache_hit = 0;
  uint16_t count = 0;
  if (!reader->ReadI64(&value.epoch) || !reader->ReadU8(&cache_hit) ||
      !reader->ReadU16(&count)) {
    return Malformed<QueryResult>("truncated query reply header");
  }
  // Each candidate is 12 bytes; reject counts the body cannot hold before
  // reserving, so a hostile count cannot balloon memory.
  if (reader->Remaining() != static_cast<size_t>(count) * 12) {
    return Malformed<QueryResult>("candidate count mismatches body size");
  }
  value.cache_hit = cache_hit != 0;
  value.candidates.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    ScoredCandidate candidate;
    if (!reader->ReadI64(&candidate.id) ||
        !reader->ReadF32(&candidate.score)) {
      return Malformed<QueryResult>("truncated candidate list");
    }
    value.candidates.push_back(candidate);
  }
  return value;
}

}  // namespace

// ---- Frame layer -----------------------------------------------------------

void AppendFrame(MsgType type, const std::vector<uint8_t>& body,
                 std::vector<uint8_t>* out) {
  const auto payload_len = static_cast<uint32_t>(2 + body.size());
  PutU32(payload_len, out);
  PutU8(kVersion, out);
  PutU8(static_cast<uint8_t>(type), out);
  out->insert(out->end(), body.begin(), body.end());
}

DecodeStatus DecodeFrame(const uint8_t* data, size_t size, Frame* frame,
                         size_t* consumed, std::string* detail) {
  if (size < 4) return DecodeStatus::kNeedMore;
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(data[i]) << (8 * i);
  }
  if (payload_len < 2) {
    if (detail) *detail = "frame payload shorter than header";
    return DecodeStatus::kError;
  }
  if (payload_len > kMaxFrameBytes) {
    if (detail) *detail = "frame exceeds kMaxFrameBytes";
    return DecodeStatus::kError;
  }
  if (size < 4 + static_cast<size_t>(payload_len)) return DecodeStatus::kNeedMore;
  const uint8_t version = data[4];
  if (version != kVersion) {
    if (detail) *detail = "unsupported protocol version";
    return DecodeStatus::kError;
  }
  const uint8_t type = data[5];
  if (type < static_cast<uint8_t>(MsgType::kQueryReply) ||
      type > static_cast<uint8_t>(MsgType::kResultBatch)) {
    if (detail) *detail = "unknown message type";
    return DecodeStatus::kError;
  }
  frame->type = static_cast<MsgType>(type);
  frame->body.assign(data + 6, data + 4 + payload_len);
  *consumed = 4 + static_cast<size_t>(payload_len);
  return DecodeStatus::kFrame;
}

// ---- Body codecs -----------------------------------------------------------

std::vector<uint8_t> EncodeQuery(const Query& query) {
  std::vector<uint8_t> body;
  body.reserve(kQueryRecordBytes);
  PutQuery(query, &body);
  return body;
}

Result<Query> DecodeQuery(const std::vector<uint8_t>& body) {
  Reader reader(body.data(), body.size());
  Result<Query> query = ReadQuery(&reader);
  if (query.ok() && !reader.AtEnd()) {
    return Malformed<Query>("trailing bytes after query");
  }
  return query;
}

std::vector<uint8_t> EncodeQueryReply(const Result<QueryResult>& result) {
  std::vector<uint8_t> body;
  PutQueryReply(result, &body);
  return body;
}

Result<QueryResult> DecodeQueryReply(const std::vector<uint8_t>& body) {
  Reader reader(body.data(), body.size());
  return ReadQueryReply(&reader);
}

std::vector<uint8_t> EncodeQueryBatch(const std::vector<Query>& queries) {
  // Encoders cannot fail; the size bounds are caller invariants (the
  // router chunks RouteBatch into frames of 64 <= kMaxWireBatch).
  RETIA_CHECK(!queries.empty());
  RETIA_CHECK(queries.size() <= kMaxWireBatch);
  std::vector<uint8_t> body;
  body.reserve(2 + queries.size() * kQueryRecordBytes);
  PutU16(static_cast<uint16_t>(queries.size()), &body);
  for (const Query& query : queries) PutQuery(query, &body);
  return body;
}

Result<std::vector<Query>> DecodeQueryBatch(const std::vector<uint8_t>& body) {
  using Out = std::vector<Query>;
  Reader reader(body.data(), body.size());
  uint16_t count = 0;
  if (!reader.ReadU16(&count)) {
    return Malformed<Out>("truncated query batch header");
  }
  if (count == 0) return Malformed<Out>("empty query batch");
  if (count > kMaxWireBatch) return Malformed<Out>("query batch too large");
  // Reject counts the body cannot hold before reserving.
  if (reader.Remaining() != static_cast<size_t>(count) * kQueryRecordBytes) {
    return Malformed<Out>("query count mismatches body size");
  }
  Out queries;
  queries.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    Result<Query> query = ReadQuery(&reader);
    if (!query.ok()) return Malformed<Out>(query.detail());
    queries.push_back(query.value());
  }
  return queries;
}

std::vector<uint8_t> EncodeResultBatch(
    const std::vector<Result<QueryResult>>& results) {
  RETIA_CHECK(!results.empty());
  RETIA_CHECK(results.size() <= kMaxWireBatch);
  std::vector<uint8_t> body;
  PutU16(static_cast<uint16_t>(results.size()), &body);
  for (const Result<QueryResult>& result : results) {
    // u32 entry length, patched once the record is written after it.
    const size_t at = body.size();
    PutU32(0, &body);
    PutQueryReply(result, &body);
    const auto len = static_cast<uint32_t>(body.size() - at - 4);
    for (int i = 0; i < 4; ++i) {
      body[at + i] = static_cast<uint8_t>(len >> (8 * i));
    }
  }
  return body;
}

Result<std::vector<Result<QueryResult>>> DecodeResultBatch(
    const std::vector<uint8_t>& body) {
  using Out = std::vector<Result<QueryResult>>;
  Reader reader(body.data(), body.size());
  uint16_t count = 0;
  if (!reader.ReadU16(&count)) {
    return Malformed<Out>("truncated result batch header");
  }
  if (count == 0) return Malformed<Out>("empty result batch");
  if (count > kMaxWireBatch) return Malformed<Out>("result batch too large");
  Out results;
  results.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!reader.ReadU32(&len)) {
      return Malformed<Out>("truncated result batch entry header");
    }
    Reader entry(nullptr, 0);
    if (!reader.ReadSub(len, &entry)) {
      return Malformed<Out>("result batch entry overruns body");
    }
    // The entry's Result comes back verbatim; a malformed entry body
    // becomes a kProtocolError entry, degrading only itself.
    results.push_back(ReadQueryReply(&entry));
  }
  if (!reader.AtEnd()) {
    return Malformed<Out>("trailing bytes after result batch");
  }
  return results;
}

std::vector<uint8_t> EncodeString(const std::string& value) {
  std::vector<uint8_t> body;
  PutU32(static_cast<uint32_t>(value.size()), &body);
  body.insert(body.end(), value.begin(), value.end());
  return body;
}

Result<std::string> DecodeString(const std::vector<uint8_t>& body) {
  Reader reader(body.data(), body.size());
  uint32_t len = 0;
  std::string value;
  if (!reader.ReadU32(&len) || !reader.ReadBytes(len, &value)) {
    return Malformed<std::string>("truncated string body");
  }
  if (!reader.AtEnd()) return Malformed<std::string>("trailing bytes");
  return value;
}

std::vector<uint8_t> EncodeSwap(const std::string& prefix) {
  std::vector<uint8_t> body;
  const auto len =
      static_cast<uint16_t>(std::min<size_t>(prefix.size(), 0xffff));
  PutU16(len, &body);
  body.insert(body.end(), prefix.begin(), prefix.begin() + len);
  return body;
}

Result<std::string> DecodeSwap(const std::vector<uint8_t>& body) {
  Reader reader(body.data(), body.size());
  uint16_t len = 0;
  std::string prefix;
  if (!reader.ReadU16(&len) || !reader.ReadBytes(len, &prefix)) {
    return Malformed<std::string>("truncated swap body");
  }
  if (!reader.AtEnd()) return Malformed<std::string>("trailing bytes");
  return prefix;
}

std::vector<uint8_t> EncodeSwapReply(StatusCode status, int64_t epoch,
                                     const std::string& detail) {
  std::vector<uint8_t> body;
  PutU8(static_cast<uint8_t>(status), &body);
  PutI64(epoch, &body);
  const auto len =
      static_cast<uint16_t>(std::min<size_t>(detail.size(), 0xffff));
  PutU16(len, &body);
  body.insert(body.end(), detail.begin(), detail.begin() + len);
  return body;
}

Result<int64_t> DecodeSwapReply(const std::vector<uint8_t>& body) {
  Reader reader(body.data(), body.size());
  uint8_t code = 0;
  int64_t epoch = 0;
  uint16_t len = 0;
  std::string detail;
  if (!reader.ReadU8(&code) || !reader.ReadI64(&epoch) ||
      !reader.ReadU16(&len) || !reader.ReadBytes(len, &detail)) {
    return Malformed<int64_t>("truncated swap reply");
  }
  if (code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Malformed<int64_t>("unknown status code in swap reply");
  }
  const auto status = static_cast<StatusCode>(code);
  if (status != StatusCode::kOk) return Result<int64_t>::Error(status, detail);
  return epoch;
}

std::vector<uint8_t> EncodePong(int64_t epoch) {
  std::vector<uint8_t> body;
  PutI64(epoch, &body);
  return body;
}

Result<int64_t> DecodePong(const std::vector<uint8_t>& body) {
  Reader reader(body.data(), body.size());
  int64_t epoch = 0;
  if (!reader.ReadI64(&epoch) || !reader.AtEnd()) {
    return Malformed<int64_t>("malformed pong body");
  }
  return epoch;
}

// ---- Blocking socket IO ----------------------------------------------------

Result<bool> WriteFrame(int fd, MsgType type,
                        const std::vector<uint8_t>& body) {
  std::vector<uint8_t> frame;
  frame.reserve(6 + body.size());
  AppendFrame(type, body, &frame);
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-write must yield EPIPE (and a
    // kShardUnavailable) — not a process-killing SIGPIPE.
    const ssize_t n =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Result<bool>::Error(
          StatusCode::kShardUnavailable,
          std::string("write failed: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

Result<Frame> ReadFrame(int fd) {
  std::vector<uint8_t> buffer;
  Frame frame;
  while (true) {
    size_t consumed = 0;
    std::string detail;
    switch (DecodeFrame(buffer.data(), buffer.size(), &frame, &consumed,
                        &detail)) {
      case DecodeStatus::kFrame:
        return frame;
      case DecodeStatus::kError:
        return Result<Frame>::Error(StatusCode::kProtocolError, detail);
      case DecodeStatus::kNeedMore:
        break;
    }
    uint8_t chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) {
      return Result<Frame>::Error(StatusCode::kShardUnavailable,
                                  "peer closed connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      // EAGAIN/EWOULDBLOCK here means SO_RCVTIMEO fired: the peer is alive
      // but not answering within the deadline — same verdict as dead.
      return Result<Frame>::Error(
          StatusCode::kShardUnavailable,
          std::string("read failed: ") + std::strerror(errno));
    }
    buffer.insert(buffer.end(), chunk, chunk + n);
  }
}

}  // namespace retia::serve::wire
