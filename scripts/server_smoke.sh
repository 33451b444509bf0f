#!/usr/bin/env bash
# CI smoke test for the serving daemon: start csrl-serve on a socket
# with the ad hoc model and its 5%-drifted interval variant, send a
# mixed workload (check + robust check + quantile + frontier + stats +
# one malformed request) twice through csrl-client, and assert
#   - the check answer matches a single-shot `csrl-check --batch` run
#     string-for-string (the bit-identity claim),
#   - the robust check's envelope matches a single-shot
#     `csrl-check --model adhoc-drift:5 --batch` run string-for-string,
#   - the quantile bisection returns a bound,
#   - the frontier sweep returns a non-empty staircase, identical
#     across rounds and transports,
#   - the malformed request gets an error response without killing the
#     session,
#   - the second round is answered from warm caches (nonzero memo hits
#     in the stats response) with responses identical to round 1,
#   - a shutdown request stops the daemon within the timeout and the
#     socket file is removed,
#   - the same workload answered over TCP matches the socket answers.
#
# EXECUTORS (default 1) sets the daemon's --executors count; the
# assertions are executor-count independent, so CI runs the script at 1
# and 4 to pin the determinism claim end to end.
set -euo pipefail

SERVE=${SERVE:-_build/default/bin/csrl_serve.exe}
CLIENT=${CLIENT:-_build/default/bin/csrl_client.exe}
CHECK=${CHECK:-_build/default/bin/csrl_check.exe}
EXECUTORS=${EXECUTORS:-1}

SOCK=$(mktemp -u "${TMPDIR:-/tmp}/csrl-smoke-XXXXXX.sock")
ROUND1=$(mktemp)
ROUND2=$(mktemp)
TCPLOG=$(mktemp)
TCPROUND=$(mktemp)
SERVER_PID=
TCP_PID=
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  [ -n "$TCP_PID" ] && kill "$TCP_PID" 2>/dev/null || true
  rm -f "$SOCK" "$ROUND1" "$ROUND2" "$TCPLOG" "$TCPROUND"
}
trap cleanup EXIT

fail() {
  echo "server_smoke: FAIL: $*" >&2
  exit 1
}

"$SERVE" --socket "$SOCK" --executors "$EXECUTORS" --preload adhoc,adhoc-drift:5 &
SERVER_PID=$!

workload() {
  cat <<'EOF'
{"id": "q1", "kind": "check", "model": "adhoc", "query": "P=? ( F[t<=2] doze )"}
{"id": "r1", "kind": "check", "model": "adhoc-drift:5", "query": "P=? ( F[t<=2] doze )"}
{"id": "q2", "kind": "quantile", "model": "adhoc", "query": "P=? ( true U[t<=1] doze )", "variable": "t", "target": 0.5, "hi": 100}
{"id": "q3", "kind": "frontier", "model": "adhoc", "query": "frontier[3] P>=0.3 ( (call_idle | doze) U[t<=6][r<=600] call_initiated )"}
{"id": "bad", "kind": "frobnicate"}
{"id": "s", "kind": "stats"}
EOF
}

workload | "$CLIENT" --connect "$SOCK" --timeout 10 > "$ROUND1"
workload | "$CLIENT" --connect "$SOCK" > "$ROUND2"

# The daemon's check answer must match single-shot csrl-check exactly.
reference=$(printf '{"queries": ["P=? ( F[t<=2] doze )"]}' \
  | "$CHECK" --model adhoc --batch - \
  | sed -n 's/.*"value":\([-0-9.e]*\),.*/\1/p')
[ -n "$reference" ] || fail "could not extract the csrl-check reference value"
grep '"id":"q1"' "$ROUND1" | grep -q "\"value\":$reference," \
  || fail "round 1 check answer does not match csrl-check's $reference"

# The robust check's result object must be csrl-check's batch entry for
# the same interval model, minus the entry's name and query.
robust_reference=$(printf '{"queries": ["P=? ( F[t<=2] doze )"]}' \
  | "$CHECK" --model adhoc-drift:5 --batch - \
  | sed -n 's/.*"results":\[{"name":"q0","query":"[^"]*",\(.*\)}\],"cache".*/\1/p')
case "$robust_reference" in
  '"kind":"interval",'*) ;;
  *) fail "could not extract the csrl-check robust reference (got '$robust_reference')" ;;
esac
robust_served=$(grep '"id":"r1"' "$ROUND1" | sed -n 's/.*"result":{\(.*\)}}$/\1/p')
[ "$robust_served" = "$robust_reference" ] \
  || fail "round 1 robust check answer does not match csrl-check's envelope"

grep '"id":"q2"' "$ROUND1" | grep -q '"kind":"quantile"' \
  || fail "no quantile response"
grep '"id":"q2"' "$ROUND1" | grep -q '"value":null' \
  && fail "quantile found no bound (hi too small?)"
grep '"id":"q3"' "$ROUND1" | grep -q '"kind":"frontier"' \
  || fail "no frontier response"
grep '"id":"q3"' "$ROUND1" | grep -q '"points":\[{' \
  && ! grep '"id":"q3"' "$ROUND1" | grep -q '"points":\[\]' \
  || fail "frontier sweep returned an empty staircase"
grep '"id":"bad"' "$ROUND1" | grep -q '"error":"bad_request"' \
  || fail "malformed request did not get a bad_request error"
grep '"id":"s"' "$ROUND1" | grep -q '"requests":{"check":2,' \
  || fail "round 1 stats did not count two checks"

# Round 2: same answers, now from warm caches.
for id in q1 r1 q2 q3; do
  [ "$(grep "\"id\":\"$id\"" "$ROUND1")" = "$(grep "\"id\":\"$id\"" "$ROUND2")" ] \
    || fail "round 2 response for $id differs from round 1"
done
grep '"id":"s"' "$ROUND2" | grep -q '"requests":{"check":4,' \
  || fail "round 2 stats did not count four checks"
# The adhoc entry's path cache, not the robust entry listed after it.
path_hits=$(sed -n 's/.*"name":"adhoc","states":[0-9]*,"cache":{"path":{"lookups":[0-9]*,"hits":\([0-9]*\).*/\1/p' "$ROUND2")
[ -n "$path_hits" ] && [ "$path_hits" -gt 0 ] \
  || fail "round 2 shows no path-cache hits (got '${path_hits:-none}')"

# Graceful shutdown: acknowledged, daemon exits, socket unlinked.
ack=$(: | "$CLIENT" --connect "$SOCK" --shutdown)
[ "$ack" = '{"ok":true,"kind":"shutdown"}' ] || fail "bad shutdown ack: $ack"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  fail "daemon still running 10s after shutdown"
fi
wait "$SERVER_PID" || fail "daemon exited nonzero"
SERVER_PID=
[ ! -e "$SOCK" ] || fail "socket file $SOCK not removed on shutdown"

# TCP end to end: a fresh daemon on an ephemeral port (reported on
# stderr) answers the same workload with the same bytes, then shuts
# down over TCP.
"$SERVE" --tcp 127.0.0.1:0 --executors "$EXECUTORS" --preload adhoc,adhoc-drift:5 \
  2> "$TCPLOG" &
TCP_PID=$!
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$TCPLOG")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || fail "TCP daemon never reported its port"

workload | "$CLIENT" --tcp "127.0.0.1:$PORT" --timeout 10 > "$TCPROUND"
for id in q1 r1 q2 q3 bad; do
  [ "$(grep "\"id\":\"$id\"" "$ROUND1")" = "$(grep "\"id\":\"$id\"" "$TCPROUND")" ] \
    || fail "TCP response for $id differs from the socket round"
done

ack=$(: | "$CLIENT" --tcp "127.0.0.1:$PORT" --shutdown)
[ "$ack" = '{"ok":true,"kind":"shutdown"}' ] || fail "bad TCP shutdown ack: $ack"
for _ in $(seq 1 100); do
  kill -0 "$TCP_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$TCP_PID" 2>/dev/null; then
  fail "TCP daemon still running 10s after shutdown"
fi
wait "$TCP_PID" || fail "TCP daemon exited nonzero"
TCP_PID=

echo "server_smoke: OK (check answer $reference, $path_hits warm path-cache hits, executors $EXECUTORS, tcp port $PORT)"
