#ifndef RETIA_CKPT_BYTES_H_
#define RETIA_CKPT_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/result.h"

namespace retia::ckpt {

// Section payload encoding. Fixed-width fields are memcpy'd in native
// byte order (the repo targets little-endian x86/arm; the v1 format made
// the same assumption for its raw uint64/float dumps). Every read is
// bounds-checked and returns a Result naming the enclosing section, so a
// truncated or corrupted payload surfaces as an error instead of UB.

class ByteWriter {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }

  // Length-prefixed string.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  // Length-prefixed float array.
  void FloatArray(const float* data, int64_t n) {
    U64(static_cast<uint64_t>(n));
    Raw(data, static_cast<size_t>(n) * sizeof(float));
  }

  void Raw(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  // `context` names the enclosing section in error details.
  ByteReader(std::string_view data, std::string context)
      : data_(data), context_(std::move(context)) {}

  Result U32(uint32_t* out) { return Fixed(out); }
  Result U64(uint64_t* out) { return Fixed(out); }
  Result I64(int64_t* out) { return Fixed(out); }
  Result F32(float* out) { return Fixed(out); }
  Result F64(double* out) { return Fixed(out); }

  Result Str(std::string* out) {
    uint32_t len = 0;
    RETIA_CKPT_RETURN_IF_ERROR(U32(&len));
    if (Remaining() < len) return Truncation("string");
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return Result::Ok();
  }

  Result FloatArray(std::vector<float>* out) {
    uint64_t n = 0;
    RETIA_CKPT_RETURN_IF_ERROR(U64(&n));
    const size_t bytes = static_cast<size_t>(n) * sizeof(float);
    if (n > (1ull << 34) || Remaining() < bytes) {
      return Truncation("float array");
    }
    out->resize(static_cast<size_t>(n));
    std::memcpy(out->data(), data_.data() + pos_, bytes);
    pos_ += bytes;
    return Result::Ok();
  }

  // Unprefixed bounded read of a block whose length the caller already
  // decoded (the quantized parameter payloads).
  Result Raw(void* out, size_t len) {
    if (Remaining() < len) return Truncation("raw block");
    std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
    return Result::Ok();
  }

  bool AtEnd() const { return pos_ == data_.size(); }

  // Sections must be consumed exactly: leftovers mean the payload does not
  // match the schema the reader expects.
  Result ExpectEnd() const {
    if (AtEnd()) return Result::Ok();
    return Result::Error(ErrorCode::kCorrupt,
                         "section '" + context_ + "' has " +
                             std::to_string(data_.size() - pos_) +
                             " unexpected trailing bytes");
  }

 private:
  template <typename T>
  Result Fixed(T* out) {
    if (Remaining() < sizeof(T)) return Truncation("field");
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Result::Ok();
  }

  Result Truncation(const char* what) const {
    return Result::Error(ErrorCode::kTruncated,
                         "section '" + context_ + "' truncated reading a " +
                             what + " at byte " + std::to_string(pos_));
  }

  size_t Remaining() const { return data_.size() - pos_; }

  std::string_view data_;
  std::string context_;
  size_t pos_ = 0;
};

}  // namespace retia::ckpt

#endif  // RETIA_CKPT_BYTES_H_
