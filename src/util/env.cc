#include "util/env.h"

#include <cstdio>
#include <cstdlib>

namespace retia::util {

namespace {

void WarnBadValue(const char* name, const char* value, const char* expected) {
  std::fprintf(stderr,
               "[env] ignoring %s='%s' (expected %s); using the default\n",
               name, value, expected);
}

}  // namespace

const char* Env::Raw(const char* name) { return std::getenv(name); }

bool Env::IsSet(const char* name) {
  const char* v = Raw(name);
  return v != nullptr && *v != '\0';
}

std::string Env::StringOr(const char* name, const std::string& fallback) {
  const char* v = Raw(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : fallback;
}

int64_t Env::IntOr(const char* name, int64_t fallback) {
  const char* v = Raw(name);
  if (v == nullptr || *v == '\0') return fallback;
  int64_t parsed = 0;
  if (!ParseInt(v, &parsed)) {
    WarnBadValue(name, v, "an integer");
    return fallback;
  }
  return parsed;
}

int64_t Env::PositiveIntOr(const char* name, int64_t fallback) {
  const char* v = Raw(name);
  if (v == nullptr || *v == '\0') return fallback;
  int64_t parsed = 0;
  if (!ParseInt(v, &parsed) || parsed < 1) {
    WarnBadValue(name, v, "a positive integer");
    return fallback;
  }
  return parsed;
}

bool Env::ParseInt(const char* value, int64_t* out) {
  if (value == nullptr || *value == '\0') return false;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0') return false;
  *out = static_cast<int64_t>(parsed);
  return true;
}

}  // namespace retia::util
