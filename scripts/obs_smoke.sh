#!/usr/bin/env bash
# Observability smoke test: start a 3-node tcpnode cluster with -obs,
# scrape /metrics and /statusz, and fail on malformed output.
#
#   scripts/obs_smoke.sh
#
# Checks:
#   1. /metrics parses as Prometheus text (every sample line is
#      `name[{labels}] value`) and contains the per-type message counters
#      and the do-forever loop's counters; the writer's operations kicked
#      the loop (the cluster runs Algorithm 3, whose clients go through it);
#      and the node's local-invariant bit is 1;
#   2. /statusz is JSON carrying the node id, algorithm, loop counters and
#      the same local-invariant bit;
#   3. /debug/pprof/ answers.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT_BASE=${PORT_BASE:-7311}
OBS_BASE=${OBS_BASE:-8311}
PEERS="127.0.0.1:$PORT_BASE,127.0.0.1:$((PORT_BASE+1)),127.0.0.1:$((PORT_BASE+2))"
WORK=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building tcpnode"
go build -o "$WORK/tcpnode" ./cmd/tcpnode

echo "== starting 3-node cluster on $PEERS"
for i in 0 1 2; do
  args=(-id "$i" -alg ss-delta -peers "$PEERS" -obs "127.0.0.1:$((OBS_BASE+i))" -snapshot-every 500ms)
  if [ "$i" = 0 ]; then
    args+=(-write smoke -interval 200ms)
  fi
  "$WORK/tcpnode" "${args[@]}" >"$WORK/node$i.log" 2>&1 &
  PIDS+=($!)
done

# Wait for the obs endpoint to come up, then let some traffic flow.
for _ in $(seq 1 50); do
  if curl -sf "http://127.0.0.1:$OBS_BASE/statusz" >/dev/null 2>&1; then break; fi
  sleep 0.2
done
sleep 2

fail() { echo "FAIL: $*" >&2; for i in 0 1 2; do echo "--- node$i.log"; cat "$WORK/node$i.log"; done; exit 1; }

echo "== scraping /metrics"
curl -sf "http://127.0.0.1:$OBS_BASE/metrics" >"$WORK/metrics.txt" || fail "/metrics unreachable"

# Validate the Prometheus line grammar: every non-comment line must be
# `name value` or `name{label="v",...} value` with a numeric value.
awk '
  /^$/ || /^#/ { next }
  !/^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$/ {
    print "malformed Prometheus line " NR ": " $0; bad=1
  }
  END { exit bad }
' "$WORK/metrics.txt" || fail "malformed Prometheus exposition"

for series in \
  'selfstabsnap_messages_total{type="WRITE"}' \
  'selfstabsnap_messages_all_total' \
  'selfstabsnap_write_latency_seconds_count' \
  'selfstabsnap_loop_iterations_total' \
  'selfstabsnap_loop_kicks_total' \
  'selfstabsnap_loop_on_demand_iterations_total' \
  'go_goroutines'; do
  grep -qF "$series" "$WORK/metrics.txt" || fail "series $series missing from /metrics"
done

# Node 0 has been writing for two seconds: its loop must have been kicked
# and must have run iterations on demand.
for series in selfstabsnap_loop_kicks_total selfstabsnap_loop_on_demand_iterations_total; do
  awk -v s="$series" '$1 == s && $2 > 0 { ok=1 } END { exit !ok }' "$WORK/metrics.txt" \
    || fail "$series is 0 on the writing node"
done

# A live, uncorrupted ss-delta node is stabilized: its one object's local
# invariant holds.
grep -qxF 'selfstabsnap_local_invariant{obj="0"} 1' "$WORK/metrics.txt" \
  || fail "selfstabsnap_local_invariant{obj=\"0\"} is not 1"

echo "== scraping /statusz"
curl -sf "http://127.0.0.1:$OBS_BASE/statusz" >"$WORK/status.json" || fail "/statusz unreachable"
head -c1 "$WORK/status.json" | grep -q '{' || fail "/statusz does not start with '{'"
grep -q '"algorithm": "ss-delta"' "$WORK/status.json" || fail "statusz missing algorithm"
for field in loop_count loop_kicks_total loop_on_demand_iterations_total; do
  grep -q "\"$field\"" "$WORK/status.json" || fail "statusz missing $field"
done

tr -d ' \n' <"$WORK/status.json" | grep -qF '"local_invariant":[1]' \
  || fail "statusz local_invariant is not [1]"

echo "== checking pprof"
curl -sf "http://127.0.0.1:$OBS_BASE/debug/pprof/" >/dev/null || fail "pprof index unreachable"

echo "OK: /metrics parseable with expected series, /statusz JSON, pprof live"
