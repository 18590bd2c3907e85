#!/bin/sh
# CI entry point: full build, full test suite, the lockstep differential
# gate against the lib/oracle reference models, and a quick smoke run of
# the paper-vs-measured checks from the reproduction harness.
#
# The check thresholds are calibrated for full-size runs (60k events), so
# the --quick pass only asserts the harness runs end to end; the full-size
# verdicts are covered by the `report checks` alcotest case in `dune runtest`.
#
# Usage:
#   ./ci.sh          # build + all tests + differential + quick checks
#   ./ci.sh --fast   # build + quick tests only (skips `Slow alcotest cases)
#
# Environment:
#   DIFFERENTIAL_OPS=200000   # opt-in: a larger differential fuzz budget
#                             # (generated ops per policy) on top of the
#                             # fixed-seed @differential gate
set -eu

cd "$(dirname "$0")"

# All randomness must flow through Agg_util.Prng with explicit seeds;
# direct Stdlib.Random use would silently break run-to-run reproducibility.
# (QCheck's own generators live in test/, which is exempt.)
if grep -rnE '(^|[^.A-Za-z_])(Stdlib\.)?Random\.(self_init|State|int|bits|bool|float|full_init|init)' \
    lib bin bench examples 2>/dev/null; then
  echo "ci.sh: direct Random use found outside Agg_util.Prng (see matches above)" >&2
  exit 1
fi

# The fault layer must derive every decision from Agg_util.Prng (the
# Random grep above already rejects Stdlib.Random): a fault plan that
# drew entropy anywhere else would stop being a pure function of its
# seed and coordinates, breaking jobs-independent replay.
if ! grep -rq 'Agg_util\.Prng' lib/faults; then
  echo "ci.sh: lib/faults no longer draws its randomness from Agg_util.Prng" >&2
  exit 1
fi

# The cluster layer's ring placement, per-node fault seeds and churn all
# hang off Agg_util.Prng.derive: any other entropy source would break the
# N=1/k=1 Fleet byte-identity guarantee and jobs-independent sweeps.
if ! grep -rq 'Agg_util\.Prng' lib/cluster; then
  echo "ci.sh: lib/cluster no longer draws its randomness from Agg_util.Prng" >&2
  exit 1
fi

# The scenario fuzzer's perturbations must come from Agg_util.Prng so a
# fixed --seed replays the same violation and shrunk scenario.
if ! grep -rq 'Agg_util\.Prng' lib/scenario; then
  echo "ci.sh: lib/scenario no longer draws its randomness from Agg_util.Prng" >&2
  exit 1
fi

# The rent-family weighted baselines (Landlord, Bundle, and the indexed
# Heap that orders their victims) are deterministic by contract — their
# lockstep differential against the lib/oracle models and the
# unit-weight LRU-equivalence checks assume replay is a pure function of
# the op sequence. Any entropy source, Agg_util.Prng included, would
# break that.
if grep -rnE '(^|[^.A-Za-z_])(Stdlib\.)?Random\.|Prng\.' \
    lib/baselines/landlord.ml lib/baselines/bundle.ml lib/util/heap.ml 2>/dev/null; then
  echo "ci.sh: the weighted baselines must stay deterministic (see matches above)" >&2
  exit 1
fi

# All clock access must flow through Agg_obs.Span (lib/obs): hot-path
# modules reading wall-clock time directly could make simulation results
# time-dependent and break run-to-run reproducibility.
if grep -rnE 'Unix\.gettimeofday|Unix\.time\b|Sys\.time\b|Monotonic_clock\.' \
    lib bin bench examples 2>/dev/null | grep -v '^lib/obs/'; then
  echo "ci.sh: direct clock use found outside Agg_obs.Span (see matches above)" >&2
  exit 1
fi

# Within lib/obs itself, the only wall-clock reader is Span: Series,
# Trace_ctx and the sinks run on the simulated clock (access indices and
# summed latencies) and must stay byte-deterministic run-to-run.
if grep -rlnE 'Unix\.gettimeofday|Unix\.time\b|Sys\.time\b|Monotonic_clock\.' \
    lib/obs 2>/dev/null | grep -v '^lib/obs/span\.ml$'; then
  echo "ci.sh: wall-clock use found in lib/obs outside span.ml (see matches above)" >&2
  exit 1
fi

# The telemetry layer's only entropy (trace head-sampling, the sampled
# sink) must come from Agg_util.Prng.derive so sampling decisions are
# pure functions of (seed, index) for any --jobs value.
if ! grep -rq 'Agg_util\.Prng' lib/obs; then
  echo "ci.sh: lib/obs no longer draws its randomness from Agg_util.Prng" >&2
  exit 1
fi

# Arena discipline: the per-access paths in lib/cache and lib/successor
# are flat-array structures (Agg_util.Dlist_arena / Agg_util.Int_table);
# a Hashtbl creeping back in would reintroduce per-access hashing and
# allocation. Every online policy is covered, LFU and ARC included.
# Sanctioned exceptions, none of them on the per-access hot path:
#   lib/cache/belady.ml                     offline oracle policy
#   lib/successor/successor_list.ml         Frequency-policy count tables
#   lib/successor/tracker.ml                Frequency-policy fallback lists
#   lib/successor/{graph,grouping,oracle}.* offline baselines and oracles
hot_hashtbl=$(grep -rl 'Hashtbl' lib/cache lib/successor 2>/dev/null \
  | grep -vE 'lib/cache/belady\.ml$' \
  | grep -vE 'lib/successor/(tracker|successor_list|graph|grouping|oracle)\.(ml|mli)$' \
  || true)
if [ -n "$hot_hashtbl" ]; then
  echo "ci.sh: Hashtbl found on the arena hot path:" >&2
  echo "$hot_hashtbl" >&2
  exit 1
fi

if [ "${1:-}" = "--fast" ]; then
  dune build @all
  dune build @runtest-fast
else
  dune build @all
  dune runtest
fi

# Differential gate: every policy, successor scheme and system configuration
# against its executable reference model; fixed seed, 10k ops per policy.
dune build @differential

# Observability gate: JSONL event-dump schema validation plus exact
# reconciliation of event counts against Metrics aggregates, and the
# sweep-profiler / Chrome-trace smoke run.
dune build @obs

# Fault-injection gate: smoke-run `aggsim faults` (single hostile run and
# the loss-rate resilience sweep) at quick size.
dune build @faults

# Cluster gate: smoke-run `aggsim cluster` (replicated ring under node
# kills and the node-loss sweep) at quick size.
dune build @cluster

# Scenario gate: validate the declarative corpus, run it fast-sized with
# every invariant checked (the known-bad entries must fail), and smoke the
# fuzz/shrink path.
dune build @scenario

# Telemetry gate: windowed-series exports reconciled against run
# counters, the Chrome span dump, and the deterministic sampled
# event-dump path.
dune build @telemetry

# Weighted gate: smoke-run `aggsim weighted` (size/cost-skewed profiles,
# rent-based baselines vs the aggregating cache) in table and sweep
# forms.
dune build @weighted

# Micro gate: Bechamel micro-benchmarks and the per-policy throughput
# pass at reduced quota; exercises every online policy facade.
dune build @micro

# Optional larger fuzz budget for nightly-style runs.
if [ -n "${DIFFERENTIAL_OPS:-}" ]; then
  dune exec bin/aggsim.exe -- differential --ops "$DIFFERENTIAL_OPS" --quick
fi

dune exec bench/main.exe -- checks --quick
