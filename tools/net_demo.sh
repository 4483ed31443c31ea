#!/usr/bin/env bash
# tools/net_demo.sh — the 3-process localhost acceptance run.
#
# Forms a 12-peer MIDAS overlay out of three `ripple_cli serve` daemons
# on ephemeral localhost UDP ports, drives the default workload mix
# through `ripple_cli net-bench` (simulator reference first, then the
# live sockets, answers compared byte-for-byte), SIGTERMs the daemons so
# they flush journals/profiles, and gates the resulting BENCH_net.json
# against the committed repo-root baseline.
#
#   tools/net_demo.sh [build_dir] [out_dir]
#
# Defaults: build_dir=build, out_dir=a fresh mktemp dir. Override the
# workload with WORKLOAD=default:32 (or a workload file path) — note the
# baseline gate is skipped then, since `queries` is part of the scale
# config and a different workload is an apples-to-oranges diff.
#
# To refresh the committed baseline after an intentional change:
#   tools/net_demo.sh build out && cp out/BENCH_net.json .
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-$(mktemp -d /tmp/ripple_net_demo.XXXXXX)}"
WORKLOAD="${WORKLOAD:-default:16}"
CLI="$BUILD_DIR/tools/ripple_cli"
if [[ ! -x "$CLI" ]]; then
  echo "net_demo: $CLI not built (cmake -B $BUILD_DIR -S . && \
cmake --build $BUILD_DIR -j)" >&2
  exit 2
fi
mkdir -p "$OUT_DIR"

# Three free UDP ports: bind port 0, read the assignment back, release.
# The window between close and the daemons' bind is the usual tiny race;
# ephemeral allocation makes collisions with other services unlikely.
readarray -t PORTS < <(python3 - <<'PY'
import socket
socks = []
for _ in range(3):
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind(("127.0.0.1", 0))
    socks.append(s)
for s in socks:
    print(s.getsockname()[1])
    s.close()
PY
)

PEERS="$OUT_DIR/peers.txt"
cat > "$PEERS" <<EOF
# 12-peer overlay across three localhost daemons (tools/net_demo.sh).
config dataset=uniform peers=12 dims=2 tuples=1000 seed=7 patterns=0
peer 0-3 127.0.0.1:${PORTS[0]}
peer 4-7 127.0.0.1:${PORTS[1]}
peer 8-11 127.0.0.1:${PORTS[2]}
EOF
echo "net_demo: peers file $PEERS"
cat "$PEERS"

PIDS=()
stop_daemons() {
  for pid in "${PIDS[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
  for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
  PIDS=()
}
trap stop_daemons EXIT

for i in 0 1 2; do
  "$CLI" serve --peers-file="$PEERS" --listen="127.0.0.1:${PORTS[$i]}" \
    --journal-out="$OUT_DIR/journal-$i" \
    --profile-out="$OUT_DIR/profile-$i.json" \
    --stats-out="$OUT_DIR/stats-$i.json" \
    >"$OUT_DIR/serve-$i.log" 2>&1 &
  PIDS+=($!)
done

# Readiness via the admin plane: probe every daemon for its stats report
# until the whole cluster answers. This probes the actual serve loop over the actual
# socket — a daemon that bound its port but wedged before serving would
# pass a log grep and fail this.
if ! "$CLI" monitor --peers-file="$PEERS" --wait-healthy-ms=10000; then
  echo "net_demo: cluster never became healthy:" >&2
  for i in 0 1 2; do
    if ! kill -0 "${PIDS[$i]}" 2>/dev/null; then
      echo "net_demo: daemon $i died during startup" >&2
    fi
    cat "$OUT_DIR/serve-$i.log" >&2
  done
  exit 1
fi

"$CLI" net-bench --peers-file="$PEERS" --workload="$WORKLOAD" \
  --bench-out="$OUT_DIR" --show

# Same recipe again under --ripple=auto: the adaptive controller picks r
# per item during the simulator pass and the live pass replays it. Gated
# by the binary's own exit status (complete=true, zero mismatches) — the
# JSON goes to a separate dir so the committed BENCH_net.json baseline
# (which pins the per-item r of the default mix) stays comparable.
mkdir -p "$OUT_DIR/auto"
"$CLI" net-bench --peers-file="$PEERS" --workload="$WORKLOAD" \
  --ripple=auto --bench-out="$OUT_DIR/auto"
echo "net_demo: --ripple=auto run complete (exit status gates it)"

# Scrape the cluster while it is still up: two samples (the second
# windows QPS against the first) appended to a JSONL series.
"$CLI" monitor --peers-file="$PEERS" --count=2 --interval-ms=200 \
  --series-out="$OUT_DIR/series.jsonl"

# SIGTERM the daemons and show what they flushed on the way out.
stop_daemons
trap - EXIT
echo
echo "net_demo: daemon shutdown reports"
for i in 0 1 2; do
  sed "s/^/  [s$i] /" "$OUT_DIR/serve-$i.log"
done

# The live scrape and the daemons' own shutdown reports must agree: the
# series' final cluster totals equal the sum of the three stats-out
# files on every protocol counter. Only admin_requests is exempt — the
# scrape itself increments it while the probes are in flight (the
# monitor is an observer of everything else, a participant of that one).
python3 - "$OUT_DIR" <<'PY'
import json, sys
out_dir = sys.argv[1]
with open(f"{out_dir}/series.jsonl", encoding="utf-8") as f:
    last = json.loads(f.readlines()[-1])
scraped = last["totals"]["stats"]
summed = {}
for i in range(3):
    with open(f"{out_dir}/stats-{i}.json", encoding="utf-8") as f:
        for name, value in json.load(f)["stats"].items():
            summed[name] = summed.get(name, 0) + value
bad = [name for name in summed
       if name != "admin_requests" and scraped.get(name) != summed[name]]
if sorted(scraped) != sorted(summed):
    print("net_demo: FAIL — scraped/shutdown field lists differ:",
          sorted(scraped), "vs", sorted(summed), file=sys.stderr)
    sys.exit(1)
if bad:
    for name in bad:
        print(f"net_demo: FAIL — scraped {name}={scraped.get(name)} but "
              f"daemons report {summed[name]}", file=sys.stderr)
    sys.exit(1)
print(f"net_demo: scrape/shutdown totals agree on "
      f"{len(summed) - 1} counters (admin_requests exempt)")
PY

# Gate against the committed baseline — only for the default workload;
# any other scale is not comparable (and bench_check would say so).
if [[ -f BENCH_net.json && "$WORKLOAD" == "default:16" ]]; then
  python3 tools/bench_check.py --baseline . --fresh "$OUT_DIR" --suite net
else
  echo "net_demo: baseline gate skipped (no BENCH_net.json baseline or" \
       "non-default workload)"
fi
echo "net_demo: artifacts in $OUT_DIR"
