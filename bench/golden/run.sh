#!/bin/sh
# Runs the reproduction harness's result sections and passes at quick size
# in a fresh directory, then prints its stdout followed by each result
# ledger the run wrote, each under a header line. Timing ledgers
# (BENCH_sweep.json) are left out: they differ run to run.
#
# Usage: run.sh MAIN_EXE SCENARIO_DIR JOBS
set -eu

exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
scenarios=$(cd "$2" && pwd)
jobs=$3
run=run-jobs$jobs

rm -rf "$run"
mkdir "$run"
ln -s "$scenarios" "$run/scenarios"
(cd "$run" && "$exe" workloads fig3 fig4 fig5 fig7 fig8 summary checks ablations latency \
  fleet scale --faults --cluster --scenarios --telemetry --weighted --quick --jobs "$jobs")
for ledger in faults cluster scenarios telemetry weighted; do
  printf '\n==== BENCH_%s.json ====\n' "$ledger"
  cat "$run/BENCH_$ledger.json"
done
rm -rf "$run"
