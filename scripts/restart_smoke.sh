#!/usr/bin/env bash
# Restart smoke test: start a 3-node tcpnode cluster running Algorithm 1
# (ss-nonblocking) with node 0 writing, kill -9 node 2, restart it on the
# same address, and require that it catches up over the re-established
# links.
#
#   scripts/restart_smoke.sh
#
# Passes when, within 5 s of the restart, node 2's /statusz reports a
# registers[0].ts that node 0 only reached after the restart began: node 0
# kept writing through the outage with the majority {0, 1}, and its writes
# reach the restarted node again.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT_BASE=${PORT_BASE:-7411}
OBS_BASE=${OBS_BASE:-8411}
PEERS="127.0.0.1:$PORT_BASE,127.0.0.1:$((PORT_BASE+1)),127.0.0.1:$((PORT_BASE+2))"
WORK=$(mktemp -d)
PIDS=(0 0 0)

cleanup() {
  # SIGKILL, not SIGINT: a node stopped inside a quorum write whose majority
  # is already gone never reaches its signal handler.
  for pid in "${PIDS[@]}"; do
    if [ "$pid" != 0 ]; then kill -9 "$pid" 2>/dev/null || true; fi
  done
  wait 2>/dev/null || true
  rm -rf "$WORK"
} 2>/dev/null
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; for f in "$WORK"/*.log; do echo "--- $f"; cat "$f"; done; exit 1; }

start() {
  local i=$1 log=$2
  local args=(-id "$i" -alg ss-nonblocking -peers "$PEERS" -obs "127.0.0.1:$((OBS_BASE+i))" -snapshot-every 0)
  if [ "$i" = 0 ]; then
    args+=(-write restart -interval 20ms)
  fi
  "$WORK/tcpnode" "${args[@]}" >"$WORK/$log" 2>&1 &
  PIDS[$i]=$!
}

# reg0_ts prints node $1's registers[0].ts from /statusz, or nothing while
# the node is not serving.
reg0_ts() {
  curl -sf "http://127.0.0.1:$((OBS_BASE+$1))/statusz" 2>/dev/null |
    awk '/"registers"/ { r = 1 } r && $1 == "\"ts\":" { gsub(/[^0-9-]/, "", $2); print $2; exit }'
}

# wait_ts waits up to $3 seconds for node $1's registers[0].ts to exceed $2.
wait_ts() {
  local node=$1 floor=$2 secs=$3 ts
  for _ in $(seq 1 $((secs * 20))); do
    ts=$(reg0_ts "$node")
    if [ -n "$ts" ] && [ "$ts" -gt "$floor" ]; then return 0; fi
    sleep 0.05
  done
  return 1
}

echo "== building tcpnode"
go build -o "$WORK/tcpnode" ./cmd/tcpnode

echo "== starting 3-node cluster on $PEERS"
for i in 0 1 2; do start "$i" "node$i.log"; done
wait_ts 2 0 10 || fail "node 2 never saw a write of node 0's"

echo "== kill -9 node 2"
{ kill -9 "${PIDS[2]}"; wait "${PIDS[2]}" || true; } 2>/dev/null
PIDS[2]=0
sleep 1
before=$(reg0_ts 0)
[ -n "$before" ] || fail "node 0 stopped serving /statusz during the outage"
wait_ts 0 "$before" 5 || fail "node 0's writes stalled with node 2 down"

echo "== restarting node 2"
start 2 node2-restarted.log
floor=$(reg0_ts 0)
[ -n "$floor" ] || fail "node 0 stopped serving /statusz"
if ! wait_ts 2 "$floor" 5; then
  fail "restarted node 2 at registers[0].ts=$(reg0_ts 2), not past node 0's $floor within 5 s"
fi

echo "OK: restarted node 2 reached registers[0].ts=$(reg0_ts 2) > $floor (node 0's ts at restart)"
