#ifndef RETIA_UTIL_ENV_H_
#define RETIA_UTIL_ENV_H_

#include <cstdint>
#include <string>

namespace retia::util {

// Single choke point for RETIA_* environment-variable configuration. Every
// subsystem that reads the environment (par's RETIA_NUM_THREADS, obs's
// RETIA_TRACE / RETIA_METRICS, simd's RETIA_SIMD, quant's RETIA_QUANT /
// RETIA_QUANT_MIN_ROWS, bench's RETIA_BENCH_CACHE and the RETIA_FAIL_*
// fault-injection knobs) goes through these helpers, so parsing and
// fallback behaviour are uniform and the README can document one table.
// Malformed values never abort: the typed accessors warn once to stderr
// and return the fallback.
class Env {
 public:
  // Raw value, or nullptr when the variable is unset.
  static const char* Raw(const char* name);

  // True when the variable is set to a non-empty value.
  static bool IsSet(const char* name);

  // Value of the variable, or `fallback` when unset or empty.
  static std::string StringOr(const char* name, const std::string& fallback);

  // Integer value; warns and returns `fallback` on junk ("", "abc", "4x").
  static int64_t IntOr(const char* name, int64_t fallback);

  // Like IntOr, but values < 1 also fall back (with a warning).
  static int64_t PositiveIntOr(const char* name, int64_t fallback);

  // Pure parsing helper (unit-testable without touching the process
  // environment). Returns false when `value` is null, empty, or
  // malformed; `*out` is untouched on failure.
  static bool ParseInt(const char* value, int64_t* out);
};

}  // namespace retia::util

#endif  // RETIA_UTIL_ENV_H_
