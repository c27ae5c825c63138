#ifndef RETIA_SERVE_WIRE_H_
#define RETIA_SERVE_WIRE_H_

// Versioned length-prefixed binary wire protocol of the serving tier
// (docs/SERVING_TOPOLOGY.md). One frame on the wire is
//
//   [u32 payload_len (LE)] [u8 version] [u8 type] [body ...]
//
// where payload_len counts the version byte, the type byte, and the body
// (so payload_len >= 2), and is capped at kMaxFrameBytes. All integers
// are little-endian fixed-width; floats are IEEE-754 bit patterns. Every
// query travels in a kQueryBatch frame, a single one as a batch of one:
// its records are exactly serve::Query, and each reply entry carries
// serve::Result<QueryResult> — the typed API and the wire speak the same
// structs.
//
// Every decoder is total: malformed, truncated, wrong-version, or
// oversized bytes come back as StatusCode::kProtocolError with a detail
// string, never a CHECK failure — a socket peer cannot crash a serving
// process (serve_router_test fuzzes this). Encoders cannot fail.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/query.h"

namespace retia::serve::wire {

inline constexpr uint8_t kVersion = 1;
// Hard ceiling on one frame's payload: a QueryReply carrying max_k
// candidates is tiny; stats JSON is the largest legitimate payload.
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

// Type 1 was a single-query frame; it is retired, never reused, and
// DecodeFrame rejects it.
enum class MsgType : uint8_t {
  kQueryReply = 2,     // body: Result<QueryResult>; a kResultBatch entry,
                       // and the replica's error frame
  kStats = 3,          // body: empty
  kStatsReply = 4,     // body: u32 len + JSON bytes
  kSwap = 5,           // body: u16 len + snapshot-prefix bytes
  kSwapReply = 6,      // body: u8 status, i64 epoch, u16 len + detail
  kPing = 7,           // body: empty
  kPong = 8,           // body: i64 epoch
  kShutdown = 9,       // body: empty; replica acks with kShutdownReply
  kShutdownReply = 10,  // body: empty
  kQueryBatch = 11,     // body: u16 count + count fixed-width Query records
  kResultBatch = 12     // body: u16 count + count (u32 len + reply body)
};

// One parsed frame: the type byte plus the raw body bytes (payload minus
// the version/type header).
struct Frame {
  MsgType type = MsgType::kQueryBatch;
  std::vector<uint8_t> body;
};

// ---- Frame layer -----------------------------------------------------------

// Appends one whole frame (length prefix + version + type + body) to *out.
void AppendFrame(MsgType type, const std::vector<uint8_t>& body,
                 std::vector<uint8_t>* out);

// Outcome of DecodeFrame over a byte buffer.
enum class DecodeStatus : uint8_t {
  kFrame = 0,     // *frame holds a complete frame; *consumed advanced
  kNeedMore = 1,  // the buffer ends mid-frame; feed more bytes
  kError = 2,     // malformed (bad length, version, or type); *detail set
};

// Decodes the first frame of data[0, size). On kFrame, *consumed is the
// total bytes of the frame (prefix included). Never reads past `size`.
DecodeStatus DecodeFrame(const uint8_t* data, size_t size, Frame* frame,
                         size_t* consumed, std::string* detail);

// ---- Body codecs -----------------------------------------------------------

// One fixed 33-byte Query record (u8 kind + four i64 fields), the unit a
// QueryBatch body carries `count` of; the batch codecs write and read each
// record through the same code.
std::vector<uint8_t> EncodeQuery(const Query& query);
Result<Query> DecodeQuery(const std::vector<uint8_t>& body);

// A reply body embeds the full Result: status byte, then either the
// QueryResult fields (kOk) or the detail string. DecodeQueryReply returns
// the embedded Result verbatim — remote errors keep their original code —
// or kProtocolError when the body itself is malformed.
std::vector<uint8_t> EncodeQueryReply(const Result<QueryResult>& result);
Result<QueryResult> DecodeQueryReply(const std::vector<uint8_t>& body);

// Query batch: u16 count (1..kMaxWireBatch) followed by `count` Query
// records (the EncodeQuery body). The decoder cross-checks count against
// the body size before reserving, so a hostile count can neither balloon
// memory nor smuggle trailing bytes.
inline constexpr size_t kMaxWireBatch = 4096;
std::vector<uint8_t> EncodeQueryBatch(const std::vector<Query>& queries);
Result<std::vector<Query>> DecodeQueryBatch(const std::vector<uint8_t>& body);

// Batched replies: u16 count followed by `count` u32-length-prefixed
// EncodeQueryReply bodies, one per query in submission order. Per-entry
// statuses ride inside each embedded reply, so one failed query degrades
// only its own slot; a structurally malformed entry decodes to a
// kProtocolError entry the same way. Frame-level damage (bad count,
// truncated length prefix, trailing bytes) fails the whole decode.
std::vector<uint8_t> EncodeResultBatch(
    const std::vector<Result<QueryResult>>& results);
Result<std::vector<Result<QueryResult>>> DecodeResultBatch(
    const std::vector<uint8_t>& body);

std::vector<uint8_t> EncodeString(const std::string& value);  // u32 len + bytes
Result<std::string> DecodeString(const std::vector<uint8_t>& body);

std::vector<uint8_t> EncodeSwap(const std::string& prefix);
Result<std::string> DecodeSwap(const std::vector<uint8_t>& body);

// Swap acknowledgement: the replica's status plus its post-swap epoch.
std::vector<uint8_t> EncodeSwapReply(StatusCode status, int64_t epoch,
                                     const std::string& detail);
Result<int64_t> DecodeSwapReply(const std::vector<uint8_t>& body);

std::vector<uint8_t> EncodePong(int64_t epoch);
Result<int64_t> DecodePong(const std::vector<uint8_t>& body);

// ---- Blocking socket IO ----------------------------------------------------

// Writes one frame to `fd`, retrying on EINTR/partial writes. Returns
// kShardUnavailable on a closed or failing peer.
Result<bool> WriteFrame(int fd, MsgType type, const std::vector<uint8_t>& body);

// Reads exactly one frame from `fd` (blocking; honours any SO_RCVTIMEO on
// the socket). kShardUnavailable on EOF/io-error/timeout, kProtocolError
// on malformed bytes.
Result<Frame> ReadFrame(int fd);

}  // namespace retia::serve::wire

#endif  // RETIA_SERVE_WIRE_H_
