#!/usr/bin/env bash
# Lints, builds the tree under a sanitizer and runs the test suite. The
# fault-injection tests (ctest label `fault`) are re-run separately so a
# sanitizer report there is attributed to the fault layer at a glance.
#
#   tools/check.sh            # ASan + UBSan-less default: address
#   tools/check.sh undefined  # UBSan
#   tools/check.sh thread     # TSan over the executor and batched cache
#                             # tests, each repeated up to 10 times
#   tools/check.sh address tests/obs_test   # limit ctest to a regex
#   tools/check.sh wire       # wire codec/transport suite, ASan then UBSan
#   tools/check.sh kernels    # per-peer kernels vs the oracle, ASan then UBSan
#   tools/check.sh overlay    # overlays and their split tree, ASan then UBSan
#   tools/check.sh net        # live-overlay + fault suites, ASan then UBSan
#   tools/check.sh monitor    # admin/monitoring plane, ASan then UBSan
#   tools/check.sh cache      # cache/controller/batching, ASan then UBSan
#   tools/check.sh obs        # observability suite (obs+exec labels), TSan
#   tools/check.sh micro      # google-benchmark micro suite, smoke run
#   tools/check.sh --bench    # bench smoke suite + BENCH_*.json gate
#
# The sanitized build lives in build-san-<kind> next to the regular
# build directory, so it never disturbs an existing configure; --bench
# uses build-bench (plain RelWithDebInfo, benchmarks on).
set -euo pipefail

cd "$(dirname "$0")/.."

tools/lint_docs.sh

# Configures and builds the tree under sanitizer $1 in build-san-$1
# (benchmarks and examples off), leaving BUILD_DIR set to it.
build_san() {
  BUILD_DIR="build-san-$1"
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRIPPLE_SANITIZE="$1" \
    -DRIPPLE_BUILD_BENCHMARKS=OFF \
    -DRIPPLE_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$(nproc)"
}

# Runs the given ctest labels, in order, under address and then
# undefined: the two memory-facing sanitizers every labelled suite below
# gets.
san_labels() {
  for kind in address undefined; do
    build_san "$kind"
    for label in "$@"; do
      ctest --test-dir "$BUILD_DIR" --output-on-failure -L "$label"
    done
  done
}

# --bench: run every bench binary at smoke scale (ctest label
# bench_smoke, serialized writes into build-bench/bench_json/) and gate
# the merged BENCH_*.json against the committed repo-root baseline.
# Regenerate the baseline after an intentional perf change with:
#   ctest --test-dir build-bench -L bench_smoke
#   cp build-bench/bench_json/BENCH_*.json .
# (see docs/OBSERVABILITY.md) and commit the diff.
if [[ "${1:-}" == "--bench" ]]; then
  BUILD_DIR="build-bench"
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRIPPLE_BUILD_BENCHMARKS=ON \
    -DRIPPLE_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  rm -rf "$BUILD_DIR/bench_json" "$BUILD_DIR/net_demo"
  mkdir -p "$BUILD_DIR/bench_json"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -L bench_smoke
  # The net suite's fresh document comes from the live 3-process demo,
  # not a ctest binary: real daemons, real sockets, gated completeness.
  tools/net_demo.sh "$BUILD_DIR" "$BUILD_DIR/net_demo"
  cp "$BUILD_DIR/net_demo/BENCH_net.json" "$BUILD_DIR/bench_json/"
  python3 tools/bench_check.py --baseline . --fresh "$BUILD_DIR/bench_json"
  echo "check.sh: bench gate clean"
  exit 0
fi

# wire: the serialization/transport suite (ctest label `wire`) under
# both memory-facing sanitizers. Decoders are the code that reads
# attacker-shaped bytes, so they get the strictest harness: ASan for
# the buffer-overrun class, UBSan for the integer/shift class.
if [[ "${1:-}" == "wire" ]]; then
  san_labels wire
  echo "check.sh: wire suite clean under address+undefined"
  exit 0
fi

# kernels: the per-peer kernels and their definition-level oracle (ctest
# label `kernels`: dominance, skyline/skyband, top-k, k-d index, flat
# store, and every caller of the band merge: both skyline-family
# policies on the engines, DSL and SSP) under the same two sanitizers as
# `wire`. The property suite
# feeds zeros, subnormals and tied sums through column arithmetic and
# arena scratch, so ASan covers the buffer class and UBSan the float
# and integer class.
if [[ "${1:-}" == "kernels" ]]; then
  san_labels kernels
  echo "check.sh: kernels suite clean under address+undefined"
  exit 0
fi

# overlay: the DHTs (ctest label `overlay`: MIDAS, CAN, BATON, Chord and
# the split tree under MIDAS and CAN) under the same two sanitizers.
# Churn reuses freed peer ids and tree nodes by index, so ASan covers a
# stale or out-of-range slot and UBSan the index arithmetic.
if [[ "${1:-}" == "overlay" ]]; then
  san_labels overlay
  echo "check.sh: overlay suite clean under address+undefined"
  exit 0
fi

# net: the live-overlay suite (ctest label `net`: peers file, UDP
# transport, wall timers, daemon protocol, end-to-end over real
# sockets). Same two-sanitizer harness as `wire` — the daemon's decode
# path reads whatever the socket hands it, so it earns ASan for the
# buffer class and UBSan for the integer class. The `fault` label rides
# along: the simulator's fault tests drive the same per-peer protocol
# core (ripple/peer_core.h) the daemon runs.
if [[ "${1:-}" == "net" ]]; then
  san_labels net fault
  echo "check.sh: net and fault suites clean under address+undefined"
  exit 0
fi

# monitor: the admin/monitoring plane (ctest label `monitor`: admin
# payload codecs, registry bridge, daemon probe handling, cluster scrape
# over real sockets). Same harness as `net` — the codecs decode bytes a
# scraped daemon (or an impostor) sent, so they earn both memory-facing
# sanitizers.
if [[ "${1:-}" == "monitor" ]]; then
  san_labels monitor
  echo "check.sh: monitor suite clean under address+undefined"
  exit 0
fi

# cache: the reuse layer (ctest label `cache`: answer/bound cache,
# adaptive controller, batched execution). Same two-sanitizer harness:
# ASan because the cache hands out copies of stored answers (lifetime
# bugs would surface as use-after-evict), UBSan for the key
# normalization's float/integer handling.
if [[ "${1:-}" == "cache" ]]; then
  san_labels cache
  echo "check.sh: cache suite clean under address+undefined"
  exit 0
fi

# micro: the google-benchmark micro suite (ctest label `micro`) at
# smoke scale — one repetition, minimal timing — in the plain bench
# build. This proves every registered micro benchmark (SoA kernels,
# k-d index, Z-order, frame encode/decode, overlay maintenance) still runs to completion; timings are not gated here.
if [[ "${1:-}" == "micro" ]]; then
  BUILD_DIR="build-bench"
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRIPPLE_BUILD_BENCHMARKS=ON \
    -DRIPPLE_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -L micro
  echo "check.sh: micro bench suite clean"
  exit 0
fi

# obs: the observability suite (ctest label `obs`: metrics registry,
# tracer, profiler, journal/assembler) under TSan. The registry stays
# live inside the executor's parallel section and the journal is a
# multi-writer sink, so the race detector — not ASan — is the sanitizer
# that can falsify those contracts. The exec label rides along because
# the executor's worker threads are what actually drive the obs layer
# concurrently.
if [[ "${1:-}" == "obs" ]]; then
  build_san thread
  ctest --test-dir "$BUILD_DIR" --output-on-failure -L 'obs|exec'
  echo "check.sh: obs suite clean under thread"
  exit 0
fi

SANITIZER="${1:-address}"
FILTER="${2:-}"
case "$SANITIZER" in
  address|undefined|thread) ;;
  *)
    echo "usage: tools/check.sh [address|undefined|thread] [ctest -R regex]" >&2
    exit 2
    ;;
esac

build_san "$SANITIZER"

CTEST_ARGS=(--test-dir "$BUILD_DIR" --output-on-failure)
if [[ "$SANITIZER" == "thread" ]]; then
  # TSan targets the code that actually runs threads: the concurrent
  # executor suite (ctest label `exec`) and the batched cache pipeline
  # (label `cache`), which runs on the same worker pool. The engines
  # themselves are single-threaded by design; ASan/UBSan cover them.
  # Workers pull from one shared queue, so dispatch depends on timing:
  # every test runs up to ten times and the first failure fails the
  # check, so a scheduling race cannot pass by luck.
  CTEST_ARGS+=(--repeat until-fail:10)
  if [[ -n "$FILTER" ]]; then
    CTEST_ARGS+=(-R "$FILTER")
  else
    CTEST_ARGS+=(-L 'exec|cache')
  fi
  ctest "${CTEST_ARGS[@]}"
  echo "check.sh: $SANITIZER build clean"
  exit 0
fi
if [[ -n "$FILTER" ]]; then
  CTEST_ARGS+=(-R "$FILTER")
fi
ctest "${CTEST_ARGS[@]}"

# The fault-injection suite exercises the retry/dedup/crash machinery the
# hardest; run it again by label so its sanitizer verdict is explicit.
if [[ -z "$FILTER" ]]; then
  ctest --test-dir "$BUILD_DIR" --output-on-failure -L fault
fi
echo "check.sh: $SANITIZER build clean"
