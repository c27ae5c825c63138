#ifndef RETIA_CKPT_RESULT_H_
#define RETIA_CKPT_RESULT_H_

#include <string>
#include <utility>

namespace retia::ckpt {

// Error taxonomy of the artifact subsystem. Every load/save entry point
// returns a Result carrying one of these codes plus a human-readable
// detail string naming the offending file, section, or parameter — load
// paths never CHECK-fail on bad input, they report and let the caller
// decide (serve keeps running, the trainer surfaces the error, tests
// assert on the exact code).
enum class ErrorCode {
  kOk = 0,
  kIoError,         // open/write/fsync/rename failed (or injected failure)
  kBadMagic,        // not a RETIACKPT2 artifact (v1 files included)
  kBadVersion,      // v2 magic but an unsupported format version
  kTruncated,       // file or section ends before its declared contents
  kCorrupt,         // CRC mismatch or structurally inconsistent contents
  kMissingSection,  // a required section is absent from the artifact
  kSchemaMismatch,  // artifact disagrees with the in-memory model/optimizer
};

// Stable short name of a code ("ok", "io_error", ...), for logs and tests.
const char* ErrorCodeName(ErrorCode code);

// Status of a ckpt operation. [[nodiscard]] so that no load or save result
// can be silently dropped; check ok() or propagate.
class [[nodiscard]] Result {
 public:
  Result() : code_(ErrorCode::kOk) {}

  static Result Ok() { return Result(); }
  static Result Error(ErrorCode code, std::string detail) {
    Result r;
    r.code_ = code;
    r.detail_ = std::move(detail);
    return r;
  }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& detail() const { return detail_; }

  // "ok", or "<code_name>: <detail>".
  std::string ToString() const {
    if (ok()) return "ok";
    return std::string(ErrorCodeName(code_)) + ": " + detail_;
  }

 private:
  ErrorCode code_;
  std::string detail_;
};

// Propagates the first error of an expression returning Result.
#define RETIA_CKPT_RETURN_IF_ERROR(expr)                  \
  do {                                                    \
    ::retia::ckpt::Result retia_ckpt_result_ = (expr);    \
    if (!retia_ckpt_result_.ok()) return retia_ckpt_result_; \
  } while (0)

inline const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kIoError: return "io_error";
    case ErrorCode::kBadMagic: return "bad_magic";
    case ErrorCode::kBadVersion: return "bad_version";
    case ErrorCode::kTruncated: return "truncated";
    case ErrorCode::kCorrupt: return "corrupt";
    case ErrorCode::kMissingSection: return "missing_section";
    case ErrorCode::kSchemaMismatch: return "schema_mismatch";
  }
  return "unknown";
}

}  // namespace retia::ckpt

#endif  // RETIA_CKPT_RESULT_H_
