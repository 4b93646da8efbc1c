#!/usr/bin/env bash
# End-to-end checks of galaxy_cli error handling: unknown flags, malformed
# numbers, out-of-range gamma, and missing input files must produce a
# one-line diagnostic on stderr and a non-zero exit; bounded runs must
# report their result quality. galaxy_crashtest, galaxy_bench_client,
# galaxy_fuzz and galaxy_served share galaxy_cli's flag parser and are
# checked for the same usage errors. Invoked by ctest as:
#
#   cli_errors_test.sh /path/to/galaxy_cli /path/to/galaxy_crashtest \
#       /path/to/galaxy_bench_client /path/to/galaxy_fuzz \
#       /path/to/galaxy_served

set -u

USAGE="usage: cli_errors_test.sh galaxy_cli galaxy_crashtest galaxy_bench_client galaxy_fuzz galaxy_served"
CLI="${1:?$USAGE}"
CRASHTEST="${2:?$USAGE}"
BENCH_CLIENT="${3:?$USAGE}"
FUZZ="${4:?$USAGE}"
SERVED="${5:?$USAGE}"
TMPDIR_LOCAL="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_LOCAL"' EXIT

failures=0

# expect_fail <expected-exit> <stderr-substring> <args...>, run by $TOOL.
TOOL="$CLI"
expect_fail() {
  local want_exit="$1"; shift
  local want_substr="$1"; shift
  local stderr_file="$TMPDIR_LOCAL/stderr"
  "$TOOL" "$@" >/dev/null 2>"$stderr_file"
  local got_exit=$?
  local stderr_text
  stderr_text="$(cat "$stderr_file")"
  if [[ "$got_exit" -ne "$want_exit" ]]; then
    echo "FAIL: '$*' exited $got_exit, want $want_exit" >&2
    failures=$((failures + 1))
  fi
  if [[ "$stderr_text" != *"$want_substr"* ]]; then
    echo "FAIL: '$*' stderr '$stderr_text' missing '$want_substr'" >&2
    failures=$((failures + 1))
  fi
  # One-line diagnostic: a single error line (usage help may follow it).
  local first_line
  first_line="$(head -1 "$stderr_file")"
  if [[ -z "$first_line" ]]; then
    echo "FAIL: '$*' produced no diagnostic on stderr" >&2
    failures=$((failures + 1))
  fi
}

CSV="$TMPDIR_LOCAL/data.csv"
"$CLI" generate --type grouped --out "$CSV" --records 500 --seed 5 \
  >/dev/null || { echo "FAIL: generate"; exit 1; }

# Unknown flags -> exit 2.
expect_fail 2 "unknown flag: --frobnicate" \
  skyline --csv "$CSV" --group-by class --attrs a0,a1 --frobnicate 1
expect_fail 2 "unknown flag: --gama" \
  skyline --csv "$CSV" --group-by class --attrs a0,a1 --gama 0.5
expect_fail 2 "unknown flag" query --csv "$CSV" --sql "SELECT 1" --bogus x
expect_fail 2 "unknown flag" generate --out "$CSV" --typ imdb
expect_fail 2 "unknown command" frobnicate --csv "$CSV"

# Malformed numbers -> exit 2.
expect_fail 2 "expects a number" \
  skyline --csv "$CSV" --group-by class --attrs a0,a1 --gamma banana
expect_fail 2 "expects an integer" \
  skyline --csv "$CSV" --group-by class --attrs a0,a1 --timeout-ms 5s
expect_fail 2 "expects an integer" \
  skyline --csv "$CSV" --group-by class --attrs a0,a1 --max-comparisons 1e9

# Out-of-range gamma -> exit 2 (checked before the CSV is even opened).
expect_fail 2 "gamma must be in [0.5, 1]" \
  skyline --csv /nonexistent.csv --group-by class --attrs a0,a1 --gamma 0.3
expect_fail 2 "gamma must be in [0.5, 1]" \
  skyline --csv "$CSV" --group-by class --attrs a0,a1 --gamma 1.5
expect_fail 2 "must be non-negative" \
  skyline --csv "$CSV" --group-by class --attrs a0,a1 --timeout-ms -5

# Missing input file -> exit 1 with a NotFound diagnostic.
expect_fail 1 "cannot open file" \
  skyline --csv /nonexistent.csv --group-by class --attrs a0,a1
expect_fail 1 "NotFound" query --csv /nonexistent.csv --sql "SELECT 1"

# Bounded runs report quality; --strict turns trips into errors.
out="$("$CLI" skyline --csv "$CSV" --group-by class --attrs a0,a1 \
  --max-comparisons 1000000)"
if [[ "$out" != *"# quality: exact"* ]]; then
  echo "FAIL: bounded-but-untripped run did not report exact quality" >&2
  failures=$((failures + 1))
fi
"$CLI" skyline --csv "$CSV" --group-by class --attrs a0,a1 \
  --max-comparisons 1 --strict >/dev/null 2>"$TMPDIR_LOCAL/stderr"
if [[ $? -ne 1 ]] || ! grep -q "ResourceExhausted" "$TMPDIR_LOCAL/stderr"; then
  echo "FAIL: --strict budget trip did not produce ResourceExhausted" >&2
  failures=$((failures + 1))
fi
# A 100-comparison budget trips inside the skyline operator; the degraded
# answer (the run's own marks plus the MBB corner pass) is always reported
# as an approximate superset.
BIG="$TMPDIR_LOCAL/big.csv"
"$CLI" generate --type grouped --out "$BIG" --records 60000 --seed 3 \
  >/dev/null || { echo "FAIL: generate big"; exit 1; }
out="$("$CLI" skyline --csv "$BIG" --group-by class \
  --attrs a0,a1,a2,a3,a4 --algorithm NL --max-comparisons 100)"
if [[ $? -ne 0 || "$out" != *"# quality: approximate-superset"* ]]; then
  echo "FAIL: degraded run did not report approximate-superset" >&2
  failures=$((failures + 1))
fi

# The other tools: the same parser, the same exit-2 usage errors.
TOOL="$CRASHTEST"
expect_fail 2 "unknown flag: --cycle" --cycle 5
expect_fail 2 "--seed expects an integer, got: abc" --seed abc
expect_fail 2 "--cycles must be positive" --cycles 0
out="$("$CRASHTEST" --verbose --cycles 1 2>&1)"
if [[ $? -ne 0 || "$out" != *"1 cycles OK"* ]]; then
  echo "FAIL: galaxy_crashtest --verbose --cycles 1: $out" >&2
  failures=$((failures + 1))
fi

TOOL="$BENCH_CLIENT"
expect_fail 2 "--port is required" --connections 2
expect_fail 2 "unknown flag: --open-loop" --port 8080 --open-loop
expect_fail 2 "unknown flag: --qps" --port 8080 --qps 100
expect_fail 2 "unknown flag: --ramp-batch" --port 8080 --ramp-batch 64
expect_fail 2 "--port expects an integer" --port 80x
expect_fail 2 "--deadline-dist must be fixed|exp" --port 8080 \
  --deadline-dist uniform
# Nothing listens on port 1: the run stops after the first ramp round with
# a one-line diagnostic and exit 1, well before --duration-s runs out.
start_ms="$(date +%s%3N)"
expect_fail 1 "cannot connect to 127.0.0.1:1" --port 1 --duration-s 2 \
  --connections 3
elapsed_ms=$(( $(date +%s%3N) - start_ms ))
if (( elapsed_ms >= 1000 )); then
  echo "FAIL: unreachable --port 1 ran ${elapsed_ms} ms of --duration-s 2" >&2
  failures=$((failures + 1))
fi
if [[ "$(wc -l < "$TMPDIR_LOCAL/stderr")" -ne 1 ]]; then
  echo "FAIL: unreachable --port 1 printed more than one stderr line" >&2
  failures=$((failures + 1))
fi

TOOL="$FUZZ"
expect_fail 2 "--seed expects an integer, got: abc" --seed abc
expect_fail 2 "unknown flag: --run" --run 5
expect_fail 2 "unknown --target: nope" --target=nope

TOOL="$SERVED"
expect_fail 2 "unknown flag: --max-concurrent" --csv "$CSV" --max-concurrent 4
expect_fail 2 "must be non-negative" --csv "$CSV" --queue-timeout-ms -1
expect_fail 2 "must be non-negative" --csv "$CSV" --queue-capacity -1

if [[ "$failures" -ne 0 ]]; then
  echo "$failures failure(s)" >&2
  exit 1
fi
echo "cli_errors_test: all checks passed"
