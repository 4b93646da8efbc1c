#!/usr/bin/env bash
# End-to-end smoke test for the serving layer.
#
# Starts galaxy_served (event-driven engine) on the bundled movie dataset,
# drives it with galaxy_bench_client twice (a 400-request budget of
# repeated skyline queries with periodic /update inserts, then 200
# connections for one second), scrapes /metrics, and asserts:
#   - the bench client saw zero transport errors and zero 5xx responses,
#   - the result cache produced hits (galaxy_cache_hits_total > 0),
#   - the server shuts down cleanly on SIGTERM.
#
# Usage: scripts/server_smoke.sh [build_dir]   (run from the repo root;
# the server_smoke ctest runs it that way)
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVED="$BUILD_DIR/tools/galaxy_served"
CLIENT="$BUILD_DIR/tools/galaxy_bench_client"
CSV="galaxy_movies.csv"

# The bundled dataset is generated, not checked in; build it on demand.
if [[ ! -e "$CSV" && -x "$BUILD_DIR/examples/csv_workflow" ]]; then
  "$BUILD_DIR/examples/csv_workflow" > /dev/null
fi

for f in "$SERVED" "$CLIENT" "$CSV"; do
  if [[ ! -e "$f" ]]; then
    echo "server_smoke: missing $f (build the tools and run from the repo root)" >&2
    exit 2
  fi
done

WORK_DIR="$(mktemp -d)"
SERVER_PID=""

cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

SERVER_LOG="$WORK_DIR/served.log"
REPORT="$WORK_DIR/report.json"

# --port 0 binds an ephemeral port; parse it from the startup line.
"$SERVED" --csv "$CSV" --table movies --port 0 \
  --view "movies:Director:Pop,Qual:0.6" >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' "$SERVER_LOG")"
  [[ -n "$PORT" ]] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server_smoke: galaxy_served exited during startup:" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "$PORT" ]]; then
  echo "server_smoke: server never reported its port:" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi
echo "server_smoke: galaxy_served up on port $PORT"

http_get() {
  python3 - "$1" <<'EOF'
import sys, urllib.request
with urllib.request.urlopen(sys.argv[1], timeout=10) as r:
    sys.stdout.write(r.read().decode())
EOF
}

[[ "$(http_get "http://127.0.0.1:$PORT/healthz")" == "ok" ]] || {
  echo "server_smoke: /healthz did not answer ok" >&2
  exit 1
}

SQL="SELECT Director FROM movies GROUP BY Director SKYLINE OF Pop MAX, Qual MAX GAMMA 0.6"

# check_report <report.json> <minimum requests>
check_report() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
errors = []
if report["transport_errors"] != 0:
    errors.append(f"transport_errors={report['transport_errors']}")
fives = {c: n for c, n in report["status"].items() if c.startswith("5")}
if fives:
    errors.append(f"5xx responses: {fives}")
if report["requests"] < int(sys.argv[2]):
    errors.append(f"only {report['requests']} requests completed")
if errors:
    sys.exit("server_smoke: bench report failed checks: " + "; ".join(errors))
print(f"server_smoke: {report['connections']} connections, "
      f"{report['requests']} requests, "
      f"qps={report['qps']:.0f}, p99={report['latency_ms']['p99']:.2f}ms, "
      f"cache_hits={report['cache_hits']}, status={report['status']}")
EOF
}

# Request budget: 4 connections share 400 requests of the same skyline
# query (exercising the result cache); every 50th request on a connection
# is an insert routed through /update (exercising incremental view
# maintenance and cache invalidation). The schema is
# Title,Year,Director,Pop,Qual with integer Pop/Qual.
"$CLIENT" --port "$PORT" --connections 4 --requests 400 --sql "$SQL" \
  --update-every 50 --update-table movies \
  --update-body "Smoke Movie,2024,Smoke,9,8" \
  --seed 42 --out "$REPORT"

# Exercise the JSON branch of the CSV converter on the real report.
python3 scripts/bench_to_csv.py "$REPORT" >/dev/null
check_report "$REPORT" 400

# Duration mode with many sockets: 200 connections for one second.
"$CLIENT" --port "$PORT" --connections 200 --duration-s 1 --sql "$SQL" \
  --out "$REPORT"
check_report "$REPORT" 200

METRICS="$(http_get "http://127.0.0.1:$PORT/metrics")"
CACHE_HITS="$(printf '%s\n' "$METRICS" \
  | sed -n 's/^galaxy_cache_hits_total \([0-9][0-9]*\)$/\1/p')"
if [[ -z "$CACHE_HITS" || "$CACHE_HITS" -eq 0 ]]; then
  echo "server_smoke: expected nonzero galaxy_cache_hits_total, got '${CACHE_HITS:-missing}'" >&2
  printf '%s\n' "$METRICS" | head -40 >&2
  exit 1
fi
if printf '%s\n' "$METRICS" \
  | grep -E '^galaxy_http_responses_total\{code="5[0-9]{2}"\} [1-9]' >/dev/null; then
  echo "server_smoke: server-side 5xx counters are nonzero" >&2
  printf '%s\n' "$METRICS" | grep '^galaxy_http_responses_total' >&2
  exit 1
fi
echo "server_smoke: metrics ok (galaxy_cache_hits_total=$CACHE_HITS)"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
STATUS=$?
SERVER_PID=""
if [[ "$STATUS" -ne 0 ]]; then
  echo "server_smoke: server exited with status $STATUS on SIGTERM" >&2
  exit 1
fi
echo "server_smoke: PASS"
