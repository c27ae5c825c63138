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
# 3. ASan ckpt+stream+par+quant suites: builds ckpt_test, stream_test,
#    par_test, par_task_graph_test, quant_test, and the ckpt_smoke /
#    stream_demo examples with -fsanitize=address into build-asan/ and
#    runs the ckpt-, stream-, par-, and quant-labelled ctest suites. The
#    artifact parser is fed corrupt and truncated bytes on purpose
#    (including the quantized q8/f16 sections), the thread-pool and
#    task-graph tests throw through shards and skipped dependents, the
#    parallel snapshot builds hand cache entries across threads, and the
#    quant harness walks randomized shapes that straddle every
#    vector-strip boundary, so all of it runs under ASan to prove the
#    bounds checks and lifetimes hold.
# 3b. Bench-gate cross-check: validates the committed BENCH_kernels.json
#    thread-sweep and quant blocks against their own host record — a
#    multi-core pin must have the thread-sweep gate enforced with > 1x
#    4-thread speedups on the inter-op benches; a vector-backend pin must
#    have the quant decode gate enforced at >= 2x with the snapshot ratio
#    >= 2x regardless; a single-core / scalar pin must say so instead of
#    pretending (scripts/bench_kernels.sh writes both blocks). Also
#    validates BENCH_serve.json structurally: the pinned serving run must
#    be a clean zero-drop pass over >= 2 replica processes with all
#    replicas agreeing on the post-hot-swap epoch, carry its host record
#    (num_cpus_effective), and include a batch block whose batched-vs-
#    unbatched comparison at batch >= 8 clears the 1.5x speedup floor
#    (scripts/bench_serve.sh re-pins all of it).
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
#    must drop zero requests; a SIGKILLed replica must degrade only its
#    consistent-hash arc to shard_unavailable without hanging the router
#    (docs/SERVING_TOPOLOGY.md).
# 6. UBSan smoke over the vector kernels: builds simd_test and
#    tensor_property_test with -fsanitize=undefined (no-recover) into
#    build-ubsan/ and runs them. The exp bit tricks (int add on the
#    exponent field, shift-by-23, bitcasts) and the unaligned vector
#    loads are exactly the code UBSan exists for.
#
# Usage: scripts/check.sh [build-dir]        (default: <repo>/build-tsan)
# Also registered as the ctest test `tsan_smoke` when the tree is
# configured with -DRETIA_SMOKE_TSAN=ON.
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
  -DRETIA_SANITIZE=thread \
  -DRETIA_SMOKE_TSAN=OFF

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
# artifact parser flipped, truncated, and trailing bytes; AddressSanitizer
# turns any missed bounds check into a hard failure instead of a lucky read.
cmake -B "${BUILD_ASAN}" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DRETIA_SANITIZE=address \
  -DRETIA_SMOKE_TSAN=OFF

cmake --build "${BUILD_ASAN}" -j "${JOBS}" \
  --target ckpt_test stream_test par_test par_task_graph_test quant_test \
           ckpt_smoke stream_demo

ASAN_OPTIONS="halt_on_error=1${ASAN_OPTIONS:+:${ASAN_OPTIONS}}" \
  ctest --test-dir "${BUILD_ASAN}" -L "ckpt|stream|par|quant" --output-on-failure

echo "check.sh: ckpt, stream, par, and quant suites clean under AddressSanitizer"

# ---------------------------------------------------------------------------
# Bench-gate cross-check: the committed thread-sweep gate must be
# internally consistent with the host it was pinned on.
python3 - "${ROOT}/BENCH_kernels.json" <<'PY'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

host = doc.get("host", {})
sweep = doc.get("thread_sweep")
if sweep is None:
    sys.exit(f"check.sh: {path} has no thread_sweep block — re-pin with "
             "scripts/bench_kernels.sh")
if "num_cpus_effective" not in host:
    sys.exit(f"check.sh: {path} host block lacks num_cpus_effective")

cpus = sweep.get("effective_cpus")
enforced = sweep.get("gate_enforced")
speedups = sweep.get("speedups_at_4t", {})
REQUIRED = ["BM_InterOpTimestepSweep/4", "BM_ScatterAddThreadSweep/4"]

if cpus is None or enforced is None or not sweep.get("reason"):
    sys.exit("check.sh: thread_sweep block is missing effective_cpus, "
             "gate_enforced, or reason")
if cpus >= 4:
    if not enforced:
        sys.exit(f"check.sh: pinned on a {cpus}-CPU host but the "
                 "thread-sweep gate is not enforced — re-pin")
    missing = [n for n in REQUIRED if n not in speedups]
    if missing:
        sys.exit(f"check.sh: enforced gate lacks inter-op rows: {missing}")
    slow = {n: s for n, s in speedups.items() if s <= 1.0}
    if slow:
        sys.exit(f"check.sh: enforced gate pinned with <= 1x 4-thread "
                 f"speedups: {slow}")
    print(f"check.sh: thread-sweep gate enforced ({cpus} CPUs, "
          f"{speedups})")
else:
    if enforced:
        sys.exit(f"check.sh: gate claims enforcement on a {cpus}-CPU "
                 "host — bench_kernels.sh would never pin that")
    print(f"check.sh: thread-sweep gate correctly recorded as not "
          f"enforced ({cpus} effective CPU(s))")

# The quant block's gates are single-threaded, so they are enforced (or
# honestly recorded as not, on scalar-dispatch hosts) regardless of CPU
# count — see docs/QUANTIZATION.md.
quant = doc.get("quant")
if quant is None:
    sys.exit(f"check.sh: {path} has no quant block — re-pin with "
             "scripts/bench_kernels.sh")
q_enforced = quant.get("gate_enforced")
if q_enforced is None or not quant.get("reason"):
    sys.exit("check.sh: quant block is missing gate_enforced or reason")
ratio = quant.get("snapshot_ratio")
if ratio is None or ratio < 2.0:
    sys.exit(f"check.sh: quantized snapshot ratio {ratio} is absent or "
             "below the 2x memory gate (deterministic — enforced on every "
             "host)")
if q_enforced:
    decode = quant.get("decode_speedup_int8_vs_f32", {}).get("30000")
    if decode is None or decode < 2.0:
        sys.exit(f"check.sh: enforced quant gate pinned with int8 decode "
                 f"speedup {decode} below 2x at N=30000")
    print(f"check.sh: quant gates enforced (decode {decode}x, snapshot "
          f"{ratio}x)")
else:
    print(f"check.sh: quant decode gate honestly not enforced "
          f"(scalar dispatch); snapshot ratio {ratio}x still gated")
PY

# Serving bench gate: the committed BENCH_serve.json must record a run in
# which every request the load generator issued came back ok through the
# router + wire protocol — across a mid-run coordinated hot-swap — and
# every replica ended the run on the same post-swap epoch. Absolute
# qps/latency are machine-dependent and not gated; the zero-drop and
# epoch-agreement structure is deterministic (scripts/bench_serve.sh).
python3 - "${ROOT}/BENCH_serve.json" <<'PY'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

for key in ("shards", "completed", "ok", "unavailable", "other_errors",
            "dropped", "swap_epoch", "qps", "p50_ms", "p99_ms"):
    if key not in doc:
        sys.exit(f"check.sh: {path} lacks '{key}' — re-pin with "
                 "scripts/bench_serve.sh")
if doc["shards"] < 2:
    sys.exit(f"check.sh: serving pin ran with {doc['shards']} shard(s) — "
             "the bench must exercise the multi-replica path")
if doc["dropped"] != 0 or doc["other_errors"] != 0 or doc["unavailable"] != 0:
    sys.exit(f"check.sh: serving pin is not a clean zero-drop run: "
             f"dropped={doc['dropped']} unavailable={doc['unavailable']} "
             f"other_errors={doc['other_errors']}")
if doc["ok"] != doc["completed"] or doc["completed"] <= 0:
    sys.exit(f"check.sh: serving pin ok={doc['ok']} != "
             f"completed={doc['completed']}")
if doc["swap_epoch"] != 1:
    sys.exit(f"check.sh: serving pin swap_epoch={doc['swap_epoch']} — the "
             "bench performs exactly one coordinated hot-swap, so every "
             "replica must agree on epoch 1")
if not (0 < doc["p50_ms"] <= doc["p99_ms"]) or doc["qps"] <= 0:
    sys.exit(f"check.sh: serving pin latencies are incoherent: "
             f"p50={doc['p50_ms']} p99={doc['p99_ms']} qps={doc['qps']}")
host = doc.get("host", {})
if "num_cpus_effective" not in host:
    sys.exit(f"check.sh: {path} host block lacks num_cpus_effective — "
             "re-pin with scripts/bench_serve.sh")
batch = doc.get("batch")
if batch is None:
    sys.exit(f"check.sh: {path} lacks the 'batch' block — re-pin with "
             "scripts/bench_serve.sh")
for key in ("batch_size", "qps_unbatched", "qps_batched", "speedup"):
    if key not in batch:
        sys.exit(f"check.sh: {path} batch block lacks '{key}'")
if batch["batch_size"] < 8:
    sys.exit(f"check.sh: batched pin ran at batch={batch['batch_size']} — "
             "the comparison must use batch >= 8")
if batch["speedup"] < 1.5:
    sys.exit(f"check.sh: batched serve speedup {batch['speedup']:.2f}x is "
             "below the 1.5x floor — the coalesced wire path regressed")
print(f"check.sh: serving pin structurally sound ({doc['shards']} shards, "
      f"{doc['completed']} requests, zero drops across the hot-swap; "
      f"batch={batch['batch_size']} speedup {batch['speedup']:.2f}x)")
PY

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
  -DCMAKE_BUILD_TYPE=Release \
  -DRETIA_SMOKE_TSAN=OFF

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
# still come back ok (zero drops) with all replicas agreeing on the
# post-swap epoch. Round 2 (fresh replicas): one replica is SIGKILLed
# mid-load and only its arc may degrade — to kShardUnavailable, promptly
# (no hang; the whole round runs under `timeout`), while the surviving
# shard keeps serving with zero other errors. serve_cluster itself
# enforces both invariants via --expect-zero-drop / --expect-unavailable.
SERVE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/retia_serve_smoke.XXXXXX")"
SERVE_PIDS=""
trap 'kill -9 ${SERVE_PIDS} 2>/dev/null || true; \
      rm -rf "${SMOKE_DIR}" "${STREAM_DIR}" "${SERVE_DIR}"' EXIT
CLUSTER_BIN="${BUILD_SIMD}/examples/serve_cluster"

"${CLUSTER_BIN}" prepare "${SERVE_DIR}" >/dev/null

"${CLUSTER_BIN}" replica "${SERVE_DIR}" "${SERVE_DIR}/r0.sock" \
  >"${SERVE_DIR}/r0.log" 2>&1 &
ROUND1_A=$!
"${CLUSTER_BIN}" replica "${SERVE_DIR}" "${SERVE_DIR}/r1.sock" \
  >"${SERVE_DIR}/r1.log" 2>&1 &
ROUND1_B=$!
SERVE_PIDS="${ROUND1_A} ${ROUND1_B}"

timeout 300 "${CLUSTER_BIN}" load "${SERVE_DIR}" \
  "${SERVE_DIR}/r0.sock,${SERVE_DIR}/r1.sock" \
  --queries 2000 --clients 4 --swap-after 500 \
  --expect-zero-drop --shutdown >"${SERVE_DIR}/swap.json" 2>&1
echo "check.sh: hot-swap under load dropped zero requests across 2 replicas"

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

timeout 300 "${CLUSTER_BIN}" load "${SERVE_DIR}" \
  "${SERVE_DIR}/r0.sock,${SERVE_DIR}/r1.sock" \
  --queries 2000 --clients 4 --timeout-ms 2000 \
  --kill-after 300 --kill-pid "${VICTIM}" \
  --expect-unavailable --shutdown >"${SERVE_DIR}/kill.json" 2>&1
echo "check.sh: SIGKILLed replica degraded to shard_unavailable without" \
     "hanging the router; surviving shard kept serving"

# ---------------------------------------------------------------------------
# UBSan smoke over the vector kernels. -fno-sanitize-recover=all (set by
# the RETIA_SANITIZE=undefined branch in CMakeLists.txt) makes the first
# report fatal, so a green run means zero findings.
BUILD_UBSAN="${ROOT}/build-ubsan"
cmake -B "${BUILD_UBSAN}" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DRETIA_SANITIZE=undefined \
  -DRETIA_SMOKE_TSAN=OFF

cmake --build "${BUILD_UBSAN}" -j "${JOBS}" \
  --target simd_test tensor_property_test

UBSAN_OPTIONS="print_stacktrace=1${UBSAN_OPTIONS:+:${UBSAN_OPTIONS}}" \
  ctest --test-dir "${BUILD_UBSAN}" -L simd --output-on-failure
UBSAN_OPTIONS="print_stacktrace=1${UBSAN_OPTIONS:+:${UBSAN_OPTIONS}}" \
  "${BUILD_UBSAN}/tests/tensor_property_test"

echo "check.sh: simd kernels clean under UndefinedBehaviorSanitizer"
