#!/bin/sh
# Runs the reproduction harness's result sections in a fresh directory at
# quick or full size, checks that every ledger the run wrote parses as
# JSON, then prints its stdout followed by each result ledger, each under
# a header line. Timing ledgers (BENCH_sweep.json) are parsed but not
# printed: they differ run to run.
#
# Usage: run.sh MAIN_EXE SCENARIO_DIR JOBS quick|full
set -eu

exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
scenarios=$(cd "$2" && pwd)
jobs=$3
case $4 in
  quick) size=--quick ;;
  full) size= ;;
  *) echo "run.sh: size must be quick or full, not $4" >&2; exit 2 ;;
esac
run=run-$4-jobs$jobs

rm -rf "$run"
mkdir "$run"
ln -s "$scenarios" "$run/scenarios"
# shellcheck disable=SC2086
(cd "$run" && "$exe" workloads fig3 fig4 fig5 fig7 fig8 summary checks ablations latency \
  fleet scale faults cluster scenarios telemetry weighted $size --jobs "$jobs")
for ledger in "$run"/BENCH_*.json; do
  python3 -m json.tool "$ledger" > /dev/null
done
for ledger in faults cluster scenarios telemetry weighted; do
  printf '\n==== BENCH_%s.json ====\n' "$ledger"
  cat "$run/BENCH_$ledger.json"
done
rm -rf "$run"
