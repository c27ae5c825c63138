#!/usr/bin/env bash
# Concurrency, observability, and crash-safety checks.
#
# 1. Docs/metrics lint, both ways: every metric or span name used at a
#    RETIA_OBS_* call site must be catalogued in docs/OBSERVABILITY.md and
#    every catalogue row must be emitted somewhere; every RETIA_*
#    environment variable read anywhere in the tree must have a row in
#    the README env table and every row must be read somewhere
#    (grep-based, runs before any compile so it fails fast).
# 2. TSan smoke: builds the concurrency-sensitive test binaries (par_test,
#    par_task_graph_test, serve_test, serve_router_test, serve_batch_test,
#    stream_test, obs_test, obs_disabled_test, quant_test) in Release with -fsanitize=thread into
#    build-tsan/ and runs the par/serve/obs/stream/quant-labelled ctest
#    suites under halt_on_error. Zero TSan reports is a hard requirement:
#    the par::ThreadPool sharding (including concurrent shard failures),
#    the two coarse fan-outs on it (GraphCache::Prefetch's parallel
#    snapshot builds and the per-state frozen decodes), the
#    ServeEngine drain ticks, per-timestamp once-semantics state entries
#    and snapshot hot-swap epoch pinning, the obs hot paths
#    (relaxed-atomic metrics, per-thread trace rings), and the GemmNTQuant
#    thread sweep must be data-race-free, not just bit-identical.
# 3. ASan ckpt+stream+par+quant+serve+core+graph+tensor+baselines suites:
#    builds ckpt_test, stream_test, par_test, par_task_graph_test,
#    quant_test, serve_test, serve_router_test, serve_batch_test,
#    core_test, graph_test, tensor_test, tensor_property_test,
#    baselines_test, and the ckpt_smoke / stream_demo examples with
#    -fsanitize=address into build-asan/, runs the ckpt-, stream-, par-,
#    quant- and serve-labelled ctest suites, then core_test, graph_test,
#    tensor_test, tensor_property_test and baselines_test. Under ASan every
#    fresh tensor buffer (tensor::FloatBuffer) starts as quiet NaNs, so an
#    op or kernel that reads an output or gradient element before writing
#    it poisons a result those suites check. The artifact parser is fed
#    corrupt and truncated bytes on purpose (including the quantized
#    q8/f16 sections), the wire decoders parse fuzzed and hostile socket
#    bytes and carry every routed query, the thread-pool and task-graph
#    tests throw through shards and skipped dependents, the parallel
#    snapshot builds hand cache entries across threads, the quant harness
#    walks randomized shapes that straddle every vector-strip boundary,
#    and the AggregateRows plans that Subgraph and HyperSubgraph build are
#    shared into backward closures that may outlive the GraphCache
#    (core_test), so all of it runs under ASan to prove the bounds checks
#    and lifetimes hold.
# 4. Kill-and-resume smokes: (a) trains the synthetic ckpt_smoke dataset
#    to completion, repeats the run with per-epoch state saves and a
#    RETIA_FAIL_CRASH_AFTER_RENAME SIGKILL mid-training (rc 137), resumes
#    from the surviving artifact, and requires the resumed parameters to
#    be byte-identical (cmp) to the uninterrupted run; (b) the same drill
#    against the streaming pipeline (stream_demo), with the SIGKILL landing
#    between a window's fine-tune checkpoint and its snapshot publish.
# 5. SIMD backend matrix: builds the full tree in Release into build-simd/
#    and runs the tier-1 ctest suite twice — once under the natively
#    dispatched backend (avx2/sse2/neon, whatever the host supports) and
#    once forced to the scalar reference via RETIA_SIMD=scalar. Both runs
#    must be green: the scalar run proves the legacy-bit-exact fallback
#    still carries the whole pipeline, the native run proves the vector
#    kernels hold every invariant the tests pin.
# 5b. Multi-process serving smoke: the serve_cluster demo runs a router
#    process against two replica processes over AF_UNIX sockets speaking
#    the versioned binary wire protocol. A coordinated hot-swap mid-load
#    must drop zero requests and leave both replicas on epoch 1; on the
#    same warm replicas, client-side batches of 8 must then reach at least
#    1.5x the qps of one query per frame, over an unbatched load of at
#    least 2 s; a SIGKILLed replica must degrade only its consistent-hash
#    arc to shard_unavailable without hanging the router
#    (docs/SERVING_TOPOLOGY.md).
# 6. UBSan smoke over the vector kernels, the graph index arithmetic and
#    the outside-input suites: builds simd_test, tensor_property_test,
#    core_test, graph_test, stream_test and serve_router_test with
#    -fsanitize=undefined (no-recover) into build-ubsan/ and runs them.
#    The exp bit tricks (int add on the exponent field, shift-by-23,
#    bitcasts) and the unaligned vector loads are exactly the code UBSan
#    exists for; so are Algorithm 1's packed u64 hyperedge keys and the
#    CSR offsets of the relation R-GCN's row aggregation (graph_test,
#    core_test); stream_test and serve_router_test feed the program
#    ingested ids and wire bytes, where signed overflow on a hostile value
#    is the bug class to catch.
#
# Usage: scripts/check.sh [build-dir]        (default: <repo>/build-tsan)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-${ROOT}/build-tsan}"
BUILD_ASAN="${ROOT}/build-asan"
JOBS="$(nproc 2>/dev/null || echo 2)"

# ---------------------------------------------------------------------------
# Docs/metrics lint. Pull every string literal passed to a RETIA_OBS_*
# macro in the instrumented trees (comment lines skipped so usage examples
# in headers don't count) and compare them with the names of the
# catalogue's metric rows (a backticked name whose kind column is counter,
# gauge, histogram or trace span): a name missing on either side fails.
CATALOGUE="${ROOT}/docs/OBSERVABILITY.md"
[ -f "${CATALOGUE}" ] || { echo "lint: ${CATALOGUE} missing" >&2; exit 1; }
SOURCES=("${ROOT}/src" "${ROOT}/bench" "${ROOT}/examples")
SOURCE_GLOBS=(--include='*.cc' --include='*.h' --include='*.cpp')

emitted="$(grep -rh "${SOURCE_GLOBS[@]}" \
    -E 'RETIA_OBS_(TIMED_SCOPE|TRACE_SPAN|COUNTER_ADD|GAUGE_SET|HIST_RECORD)\("' \
    "${SOURCES[@]}" 2>/dev/null \
    | grep -vE '^[[:space:]]*//' \
    | grep -oE '"[a-z0-9_.]+"' | tr -d '"' | sort -u)"
catalogued="$(grep -oE \
    '^\| `[a-z0-9_.]+` \| (counter|gauge|histogram|trace span) \|' \
    "${CATALOGUE}" | cut -d'`' -f2 | sort -u)"
missing=0
for name in $(comm -23 <(echo "${emitted}") <(echo "${catalogued}")); do
  echo "lint: metric '${name}' is used in the tree but not catalogued" \
       "in docs/OBSERVABILITY.md" >&2
  missing=1
done
for name in $(comm -13 <(echo "${emitted}") <(echo "${catalogued}")); do
  echo "lint: metric '${name}' is catalogued in docs/OBSERVABILITY.md but" \
       "nothing in the tree emits it" >&2
  missing=1
done
[ "${missing}" -eq 0 ] || exit 1
echo "check.sh: docs/OBSERVABILITY.md catalogues exactly the" \
     "$(echo "${emitted}" | wc -l) metric names the tree emits"

# Env-var lint: the RETIA_* environment variables the tree reads (string
# literals in .cc/.h/.cpp under src/, bench/, examples/ — all env access
# goes through util::Env on those literals) must match the rows of the
# README env table (first cell `RETIA_X` or `RETIA_X=<value>`) one to one.
# RETIA_OBS_* are macro names, not env vars, and are excluded.
ENV_README="${ROOT}/README.md"
read_vars="$(grep -rh "${SOURCE_GLOBS[@]}" -oE '"RETIA_[A-Z_]+"' \
    "${SOURCES[@]}" 2>/dev/null \
    | tr -d '"' | grep -vE '^RETIA_OBS_' | sort -u)"
documented="$(grep -oE '^\| `RETIA_[A-Z_]+(=[^`]*)?` \|' "${ENV_README}" \
    | grep -oE 'RETIA_[A-Z_]+' | sort -u)"
missing=0
for var in $(comm -23 <(echo "${read_vars}") <(echo "${documented}")); do
  echo "lint: env var '${var}' is read in the tree but has no row in the" \
       "README.md environment table" >&2
  missing=1
done
for var in $(comm -13 <(echo "${read_vars}") <(echo "${documented}")); do
  echo "lint: env var '${var}' has a README.md environment-table row but" \
       "nothing in the tree reads it" >&2
  missing=1
done
[ "${missing}" -eq 0 ] || exit 1
echo "check.sh: the README env table documents exactly the" \
     "$(echo "${read_vars}" | wc -l) RETIA_* env vars the tree reads"

# ---------------------------------------------------------------------------
# TSan smoke.
cmake -B "${BUILD}" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DRETIA_SANITIZE=thread

# Only the concurrency suites: building the whole tree under TSan is slow
# and the other suites exercise no cross-thread behaviour.
cmake --build "${BUILD}" -j "${JOBS}" \
  --target par_test par_task_graph_test serve_test serve_router_test \
           serve_batch_test stream_test obs_test obs_disabled_test quant_test

# halt_on_error: the first race fails the run instead of scrolling past.
TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:${TSAN_OPTIONS}}" \
  ctest --test-dir "${BUILD}" -L "par|serve|obs|stream|quant" --output-on-failure

echo "check.sh: par|serve|obs|stream|quant suites clean under ThreadSanitizer"

# ---------------------------------------------------------------------------
# ASan ckpt suite. The corruption-matrix tests deliberately hand the
# artifact parser flipped, truncated, and trailing bytes, and the serve
# suites hand the wire decoders hostile socket bytes; AddressSanitizer
# turns any missed bounds check into a hard failure instead of a lucky read.
# core_test and graph_test carry no ctest label, so they run directly: the
# per-snapshot AggregateRows plans and their shared_ptr lifetimes. So do
# tensor_test, tensor_property_test and baselines_test, whose ops write
# into NaN-filled fresh buffers under ASan (tensor/tensor.h): an op that
# reads before it writes fails them.
cmake -B "${BUILD_ASAN}" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DRETIA_SANITIZE=address

cmake --build "${BUILD_ASAN}" -j "${JOBS}" \
  --target ckpt_test stream_test par_test par_task_graph_test quant_test \
           serve_test serve_router_test serve_batch_test core_test \
           graph_test tensor_test tensor_property_test baselines_test \
           ckpt_smoke stream_demo

ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:${ASAN_OPTIONS}}" \
  ctest --test-dir "${BUILD_ASAN}" -L "ckpt|stream|par|quant|serve" \
    --output-on-failure
for suite in core_test graph_test tensor_test tensor_property_test \
             baselines_test; do
  ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:${ASAN_OPTIONS}}" \
    "${BUILD_ASAN}/tests/${suite}"
done

echo "check.sh: ckpt, stream, par, quant, serve, core, graph, tensor and" \
     "baselines suites clean under AddressSanitizer"

# ---------------------------------------------------------------------------
# Kill-and-resume smoke, on the ASan binary so the crash path is
# sanitized too. `straight` trains 4 epochs without checkpoints and dumps
# the final parameter bytes; `crashy` repeats the run with per-epoch state
# saves until retia::fail delivers SIGKILL right after the 3rd atomic
# rename (i.e. after epoch 2's save hits disk); `resume` reloads the
# surviving artifact, finishes the remaining epoch, and dumps its bytes.
# The two dumps must be identical — resume-exactness is cmp, not "close".
SMOKE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/retia_ckpt_smoke.XXXXXX")"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
SMOKE_BIN="${BUILD_ASAN}/examples/ckpt_smoke"

"${SMOKE_BIN}" straight "${SMOKE_DIR}"

rc=0
RETIA_FAIL_CRASH_AFTER_RENAME=3 "${SMOKE_BIN}" crashy "${SMOKE_DIR}" || rc=$?
if [ "${rc}" -ne 137 ]; then
  echo "check.sh: expected the crashy run to die with SIGKILL (rc 137)," \
       "got rc ${rc}" >&2
  exit 1
fi

"${SMOKE_BIN}" resume "${SMOKE_DIR}"

cmp "${SMOKE_DIR}/params_straight.bin" "${SMOKE_DIR}/params_resumed.bin"
echo "check.sh: resumed parameters byte-identical to the uninterrupted run"

# ---------------------------------------------------------------------------
# Streaming kill-and-resume smoke, same protocol against the online
# pipeline. With a snapshot prefix configured, each fine-tune window
# performs two atomic renames — the trainer checkpoint, then the serve
# snapshot — so RETIA_FAIL_CRASH_AFTER_RENAME=5 SIGKILLs the crashy run
# exactly between window 3's fine-tune checkpoint and its publish: the
# hardest crash point, where training state and serving state disagree.
# `resume` restores the checkpoint, republishes, replays the stream, and
# its parameter dump must be byte-identical to the uninterrupted run.
STREAM_DIR="$(mktemp -d "${TMPDIR:-/tmp}/retia_stream_smoke.XXXXXX")"
trap 'rm -rf "${SMOKE_DIR}" "${STREAM_DIR}"' EXIT
STREAM_BIN="${BUILD_ASAN}/examples/stream_demo"

"${STREAM_BIN}" straight "${STREAM_DIR}"

rc=0
RETIA_FAIL_CRASH_AFTER_RENAME=5 "${STREAM_BIN}" crashy "${STREAM_DIR}" || rc=$?
if [ "${rc}" -ne 137 ]; then
  echo "check.sh: expected the crashy stream run to die with SIGKILL" \
       "(rc 137), got rc ${rc}" >&2
  exit 1
fi

"${STREAM_BIN}" resume "${STREAM_DIR}"

cmp "${STREAM_DIR}/params_straight.bin" "${STREAM_DIR}/params_resumed.bin"
echo "check.sh: resumed stream parameters byte-identical to the uninterrupted run"

# ---------------------------------------------------------------------------
# SIMD backend matrix: the tier-1 suite under the native backend and again
# forced to the scalar reference. One Release tree, two ctest passes — the
# dispatch decision is runtime (RETIA_SIMD), not compile-time.
BUILD_SIMD="${ROOT}/build-simd"
cmake -B "${BUILD_SIMD}" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=Release

cmake --build "${BUILD_SIMD}" -j "${JOBS}"

ctest --test-dir "${BUILD_SIMD}" --output-on-failure -j "${JOBS}"
echo "check.sh: tier-1 suite green under the native simd backend"

RETIA_SIMD=scalar \
  ctest --test-dir "${BUILD_SIMD}" --output-on-failure -j "${JOBS}"
echo "check.sh: tier-1 suite green under RETIA_SIMD=scalar"

# ---------------------------------------------------------------------------
# Multi-process serving smoke (examples/serve_cluster from the Release
# tree): a router process drives zipfian load through the binary wire
# protocol against two real replica processes on AF_UNIX sockets.
# Round 1: a coordinated hot-swap lands mid-load and every request must
# still come back ok (zero drops) with every replica on the post-swap
# epoch 1. Then, against the same warm replicas, one query per frame and
# batches of 8 per RouteBatch (one QueryBatch frame per shard group) run
# the same zipfian load: batching must reach at least 1.5x the unbatched
# qps, and the unbatched load must run at least 2 s so the ratio is not
# start-up noise. Round 2 (fresh replicas): one replica is SIGKILLed
# mid-load and only its arc may degrade — to kShardUnavailable, promptly
# (no hang; every load runs under `timeout`), while the surviving shard
# keeps serving with zero other errors. serve_cluster itself enforces the
# drop and degrade invariants via --expect-zero-drop / --expect-unavailable.
SERVE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/retia_serve_smoke.XXXXXX")"
SERVE_PIDS=""
trap 'kill -9 ${SERVE_PIDS} 2>/dev/null || true; \
      rm -rf "${SMOKE_DIR}" "${STREAM_DIR}" "${SERVE_DIR}"' EXIT
CLUSTER_BIN="${BUILD_SIMD}/examples/serve_cluster"
SOCKETS="${SERVE_DIR}/r0.sock,${SERVE_DIR}/r1.sock"

# cluster_load <name> <flags...>: one serve_cluster load against both
# replicas. Its JSON summary goes to <name>.json; a failing load shows
# that summary and its stderr before check.sh exits.
cluster_load() {
  local name="$1"
  shift
  if ! timeout 300 "${CLUSTER_BIN}" load "${SERVE_DIR}" "${SOCKETS}" "$@" \
      >"${SERVE_DIR}/${name}.json" 2>"${SERVE_DIR}/${name}.log"; then
    cat "${SERVE_DIR}/${name}.json" "${SERVE_DIR}/${name}.log" >&2
    echo "check.sh: serve_cluster load $* failed" >&2
    exit 1
  fi
}

"${CLUSTER_BIN}" prepare "${SERVE_DIR}" >/dev/null

"${CLUSTER_BIN}" replica "${SERVE_DIR}" "${SERVE_DIR}/r0.sock" \
  >"${SERVE_DIR}/r0.log" 2>&1 &
ROUND1_A=$!
"${CLUSTER_BIN}" replica "${SERVE_DIR}" "${SERVE_DIR}/r1.sock" \
  >"${SERVE_DIR}/r1.log" 2>&1 &
ROUND1_B=$!
SERVE_PIDS="${ROUND1_A} ${ROUND1_B}"

cluster_load swap --queries 2000 --clients 4 --swap-after 500 \
  --expect-zero-drop
if ! grep -q '"swap_epoch":1,' "${SERVE_DIR}/swap.json"; then
  cat "${SERVE_DIR}/swap.json" >&2
  echo "check.sh: the hot-swap round did not end on epoch 1" >&2
  exit 1
fi
echo "check.sh: hot-swap under load dropped zero requests across 2" \
     "replicas, both on epoch 1"

# About 4 s unbatched on a 4-vCPU host, so the 2 s floor holds with room.
cluster_load unbatched --queries 600000 --clients 4 --expect-zero-drop
cluster_load batched --queries 600000 --clients 4 --batch 8 \
  --expect-zero-drop --shutdown
python3 - "${SERVE_DIR}/unbatched.json" "${SERVE_DIR}/batched.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    unbatched = json.load(f)
with open(sys.argv[2]) as f:
    batched = json.load(f)
if unbatched["wall_seconds"] < 2.0:
    sys.exit(f"check.sh: the unbatched load ran {unbatched['wall_seconds']:.2f}"
             " s, under the 2 s floor: raise its --queries")
ratio = batched["qps"] / unbatched["qps"]
summary = (f"batch={batched['wire_batch']} qps {unbatched['qps']:.0f} -> "
           f"{batched['qps']:.0f} ({ratio:.2f}x, unbatched "
           f"{unbatched['wall_seconds']:.2f} s)")
if ratio < 1.5:
    sys.exit(f"check.sh: {summary} is below the 1.5x batching floor")
print(f"check.sh: {summary}")
PY

# Round-1 replicas unlink their socket path as they exit; wait for them
# so the rebinding round-2 replicas cannot lose a freshly-bound socket.
wait "${ROUND1_A}" "${ROUND1_B}" || true

"${CLUSTER_BIN}" replica "${SERVE_DIR}" "${SERVE_DIR}/r0.sock" \
  >"${SERVE_DIR}/r0b.log" 2>&1 &
SERVE_PIDS="${SERVE_PIDS} $!"
"${CLUSTER_BIN}" replica "${SERVE_DIR}" "${SERVE_DIR}/r1.sock" \
  >"${SERVE_DIR}/r1b.log" 2>&1 &
VICTIM=$!
SERVE_PIDS="${SERVE_PIDS} ${VICTIM}"

cluster_load kill --queries 2000 --clients 4 --timeout-ms 2000 \
  --kill-after 300 --kill-pid "${VICTIM}" --expect-unavailable --shutdown
echo "check.sh: SIGKILLed replica degraded to shard_unavailable without" \
     "hanging the router; surviving shard kept serving"

# ---------------------------------------------------------------------------
# UBSan smoke over the vector kernels, Algorithm 1 and the row aggregation
# (graph_test, core_test), and the two suites that feed outside input
# (ingested ids, wire bytes) into the program. -fno-sanitize-recover=all
# (set by the RETIA_SANITIZE=undefined branch in CMakeLists.txt) makes the
# first report fatal, so a green run means zero findings.
BUILD_UBSAN="${ROOT}/build-ubsan"
cmake -B "${BUILD_UBSAN}" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DRETIA_SANITIZE=undefined

cmake --build "${BUILD_UBSAN}" -j "${JOBS}" \
  --target simd_test tensor_property_test core_test graph_test stream_test \
  serve_router_test

UBSAN_OPTIONS="print_stacktrace=1${UBSAN_OPTIONS:+:${UBSAN_OPTIONS}}" \
  ctest --test-dir "${BUILD_UBSAN}" -L simd --output-on-failure
for suite in tensor_property_test core_test graph_test stream_test \
    serve_router_test; do
  UBSAN_OPTIONS="print_stacktrace=1${UBSAN_OPTIONS:+:${UBSAN_OPTIONS}}" \
    "${BUILD_UBSAN}/tests/${suite}"
done

echo "check.sh: simd kernels, graph/core, stream ingest and serve wire" \
     "suites clean under UndefinedBehaviorSanitizer"
