// Environment-driven construction of the serving-tier configs. Every
// RETIA_SERVE_* knob is parsed exactly once, here, through util::Env, and
// the defaults in the struct declarations are the single source of truth
// (docs/SERVING_TOPOLOGY.md and the README env table document this file).
// engine.cc / router.cc contain no environment reads of their own.

#include <algorithm>

#include "quant/quant.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/wire.h"
#include "util/env.h"

namespace retia::serve {

ServeConfig ServeConfig::FromEnv() {
  ServeConfig config;
  config.num_threads =
      util::Env::PositiveIntOr("RETIA_SERVE_THREADS", config.num_threads);
  config.max_batch =
      util::Env::PositiveIntOr("RETIA_SERVE_MAX_BATCH", config.max_batch);
  config.max_k = util::Env::PositiveIntOr("RETIA_SERVE_MAX_K", config.max_k);
  config.enable_cache =
      util::Env::BoolOr("RETIA_SERVE_CACHE", config.enable_cache);
  config.cache_capacity = util::Env::PositiveIntOr(
      "RETIA_SERVE_CACHE_CAPACITY", config.cache_capacity);
  config.cache_shards = util::Env::PositiveIntOr("RETIA_SERVE_CACHE_SHARDS",
                                                 config.cache_shards);
  // quantized_decode stays -1: the RETIA_QUANT / RETIA_QUANT_MIN_ROWS
  // knobs are owned by retia::quant and resolved in ResolvesQuantized.
  return config;
}

bool ServeConfig::ResolvesQuantized(int64_t num_entities) const {
  const bool want =
      quantized_decode >= 0 ? quantized_decode != 0 : quant::QuantEnabled();
  return want && num_entities >= quant::QuantMinRows();
}

RouterConfig RouterConfig::FromEnv() {
  RouterConfig config;
  config.virtual_nodes =
      util::Env::PositiveIntOr("RETIA_SERVE_VNODES", config.virtual_nodes);
  config.connections_per_replica = util::Env::PositiveIntOr(
      "RETIA_SERVE_CONNECTIONS", config.connections_per_replica);
  config.timeout_ms =
      util::Env::PositiveIntOr("RETIA_SERVE_TIMEOUT_MS", config.timeout_ms);
  config.max_wire_batch = std::min<int64_t>(
      util::Env::PositiveIntOr("RETIA_SERVE_MAX_WIRE_BATCH",
                               config.max_wire_batch),
      static_cast<int64_t>(wire::kMaxWireBatch));
  return config;
}

}  // namespace retia::serve
