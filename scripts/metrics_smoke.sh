#!/usr/bin/env bash
# End-to-end smoke test of the serving-tier telemetry: fit a model, start
# uoiserve in fleet mode (3 replicas) with -metrics and -access-log, drive
# tagged traffic across a deterministic mid-traffic replica kill, then
#   1. scrape GET /metrics and validate it with the round-trip exposition
#     parser (scripts/promcheck), asserting the serving families are present
#     and the request counters actually counted,
#   2. assert a client-supplied X-Request-ID appears in the structured
#     access log on both the router hop and the replica hop — i.e. one
#     request is traceable across layers by its ID — including for traffic
#     that rode through the failover window.
# Exits nonzero on any failed request, invalid exposition, or a broken trace.
set -euo pipefail

GO=${GO:-go}
ADDR=${ADDR:-127.0.0.1:8693}
WORK=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "== build uoiserve + promcheck =="
"$GO" build -o "$WORK/uoiserve" ./cmd/uoiserve
"$GO" build -o "$WORK/promcheck" ./scripts/promcheck

echo "== generate + fit =="
"$GO" run ./cmd/uoigen -kind var -n 400 -p 8 -order 1 -seed 7 -o "$WORK/series.hbf"
mkdir -p "$WORK/models"
"$GO" run ./cmd/uoifit -algo var -data "$WORK/series.hbf" -order 1 \
  -b1 4 -b2 3 -q 4 -ranks 2 -model-out "$WORK/models/smoke.uoim"

echo "== start fleet (3 replicas, -metrics, -access-log, kill primary at req 5) =="
"$WORK/uoiserve" -models "$WORK/models" -addr "$ADDR" \
  -replicas 3 -replication-factor 2 \
  -metrics -access-log "$WORK/access.log" -access-log-sample 1 \
  -chaos-kill smoke@5 -chaos-restart 2s >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

for i in $(seq 1 50); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "fleet exited early:" >&2
    cat "$WORK/server.log" >&2
    exit 1
  fi
  sleep 0.2
done

BODY='{"model":"smoke","history":[[0.1,0,0,0,0,0,0,0],[0,0.2,0,0,0,0,0,0]],"horizon":3}'

echo "== 30 tagged requests across the injected kill =="
for i in $(seq 1 30); do
  CODE=$(curl -sS -o "$WORK/fc.json" -w '%{http_code}' \
    -H 'Content-Type: application/json' \
    -H "X-Request-ID: smoke-req-$i" \
    -d "$BODY" "http://$ADDR/v1/forecast")
  if [ "$CODE" != "200" ]; then
    echo "request $i failed: HTTP $CODE" >&2
    cat "$WORK/fc.json" >&2
    exit 1
  fi
done
echo "30/30 ok"

echo "== the kill must actually have fired =="
grep -q 'chaos: killed replica' "$WORK/server.log" || {
  echo "no chaos kill in server log" >&2
  cat "$WORK/server.log" >&2
  exit 1
}

echo "== scrape /metrics and validate via the round-trip parser =="
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.prom" || {
  echo "scrape failed" >&2
  cat "$WORK/server.log" >&2
  exit 1
}
"$WORK/promcheck" \
  -require uoivar_fleet_requests_total,uoivar_fleet_request_seconds,uoivar_serve_requests_total,uoivar_serve_request_seconds,uoivar_fleet_replica_healthy,uoivar_trace_counter \
  -min uoivar_fleet_requests_total=30,uoivar_serve_requests_total=30 \
  <"$WORK/metrics.prom"

echo "== every request ID must appear on both the router and replica hops =="
for i in 1 5 30; do
  for layer in router serve; do
    grep -q "\"request_id\":\"smoke-req-$i\".*\"layer\":\"$layer\"" "$WORK/access.log" ||
    grep -q "\"layer\":\"$layer\".*\"request_id\":\"smoke-req-$i\"" "$WORK/access.log" || {
      echo "request smoke-req-$i left no $layer access-log line" >&2
      cat "$WORK/access.log" >&2
      exit 1
    }
  done
done
echo "request IDs trace router -> replica (including across the kill window)"

echo "== drain =="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
grep -q 'fleet drained cleanly' "$WORK/server.log" || {
  echo "fleet did not drain cleanly" >&2
  cat "$WORK/server.log" >&2
  exit 1
}
echo "metrics smoke passed"
