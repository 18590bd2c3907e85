#!/bin/sh
# CI entry point: full build, full test suite, the lockstep differential
# gate against the lib/oracle reference models, one-second checked runs
# of each steady-benchmark workload (plain and traced), gates on that
# binary's linked units and calibration-loop page offset and on its
# out-of-line calls of the inlined table and list primitives, the test
# suite again against the release build, a quick smoke run
# of the paper-vs-measured checks from the reproduction harness, the
# full-size harness golden, the sweep ledger's merge of a partial run,
# the entropy commands, a client replay and a cluster scenario on
# sparse-id traces and extreme capacities under a memory cap, the CLI's
# parse-time rejection of out-of-range counts, and the list of exports
# nothing else references.
# The run fails if it leaves the working tree different from how it found
# it.
#
# The check thresholds are calibrated for full-size runs (60k events), so
# the --quick pass only asserts the harness runs end to end; the full-size
# verdicts are covered by the `report checks` alcotest case in `dune runtest`.
#
# Usage:
#   ./ci.sh          # build + all tests + differential + perfbench + quick checks
#   ./ci.sh --fast   # build + quick tests only (skips `Slow alcotest cases)
#
# Environment:
#   DIFFERENTIAL_OPS=200000   # opt-in: a larger differential fuzz budget
#                             # (generated ops per policy) on top of the
#                             # fixed-seed @differential gate
set -eu

cd "$(dirname "$0")"

# The run must leave the working tree as it found it: every ledger, golden
# and generated file it touches lives in _build or a scratch directory.
# Outside a git checkout both snapshots are empty and the check is moot.
tree_status() { git status --porcelain 2>/dev/null || true; }
status_on_entry=$(tree_status)

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
# hang off Agg_util.Prng.derive: any other entropy source would make a run
# stop being a pure function of (config, trace), breaking the one-node
# cluster's recorded counters and jobs-independent sweeps.
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

# Int-specialised comparisons on the per-access and per-event paths
# (workload generation included): a bare [min], [max], [compare],
# [List.mem] or [List.assoc] is polymorphic, and compiles to a C call
# that walks both values ([caml_lessequal] -> [compare_val]) even on
# ints. Use [Int.min], [Int.max], [Int.compare], typed comparators for
# sorts and an int-typed membership test instead. lib/cache/belady.ml is
# the offline oracle policy and exempt.
poly_files="$(ls lib/cache/*.ml | grep -v 'lib/cache/belady\.ml$')
lib/successor/tracker.ml lib/successor/successor_list.ml
lib/core/group_builder.ml lib/core/client_cache.ml lib/core/server_cache.ml
lib/cluster/ring.ml lib/cluster/cluster.ml
lib/faults/plan.ml
lib/util/int_table.ml lib/util/dlist_arena.ml lib/util/heap.ml lib/util/prng.ml lib/util/int_fifo.ml
lib/util/dist.ml lib/workload/generator.ml lib/workload/task.ml
lib/baselines/landlord.ml lib/baselines/bundle.ml"
# shellcheck disable=SC2086
if grep -nE "(^|[^.A-Za-z0-9_'])(min|max|compare)([^A-Za-z0-9_']|\$)|List\.(mem|assoc|mem_assoc|assoc_opt)\b" \
    $poly_files; then
  echo "ci.sh: polymorphic comparison on a per-access path (see matches above)" >&2
  exit 1
fi

# Every export earns its place: list each `val` of lib/*/*.mli that no
# .ml or .mli under lib, bin, bench, examples, perfbench or test outside
# its own module references, and compare the list with the committed
# lib/unreferenced-exports.txt. A file references `M.name` (a `val name`
# of M's .mli, or of its `module M : sig` when M is a submodule; vals of
# a `module type` are requirements, not exports, and are skipped) when it
# writes `M.name`, through any prefix (`Lib.M.name`) or an alias of M
# (`module A = Lib.M`, then `A.name`), or when it opens M (`open M`,
# `include M`, `let open M in`, `M.(...)`) and holds the bare name;
# packing M (`(module M)`) brings none of its names into scope. Comments
# count as text, so the list is a lower bound. A new entry fails the
# run, and so does a stale one, so the committed list stays exact:
# delete an export, or reference it, and update the list in the same
# change.
exports=$(mktemp -d)
trap 'rm -rf "$exports"' EXIT
python3 - > "$exports/unreferenced" <<'PY'
import glob, os, re

name_re = r"[A-Za-z_][A-Za-z0-9_']*"
mod_re = r"[A-Z][A-Za-z0-9_']*"
qualified = re.compile(rf"(?<![A-Za-z0-9_'])({mod_re})\.([a-z_][A-Za-z0-9_']*)")
local_open = re.compile(rf"(?<![A-Za-z0-9_'])({mod_re})\.[({{\[]")
opens = re.compile(rf"\b(?:open!?|include)\s+(?:{mod_re}\.)*({mod_re})")
aliases = re.compile(rf"\bmodule\s+({mod_re})\s*=\s*(?:{mod_re}\.)*({mod_re})\b")

# per file: the (module, name) pairs it writes, the modules it opens, and
# its bare names; an alias stands for its module too
refs = {}
for d in ("lib", "bin", "bench", "examples", "perfbench", "test"):
    for f in glob.glob(d + "/**/*.ml*", recursive=True):
        if not f.endswith((".ml", ".mli")):
            continue
        text = open(f, encoding="latin-1").read()
        alias = dict(aliases.findall(text))
        qual, opened = set(), set()
        for m, v in qualified.findall(text):
            qual |= {(m, v), (alias.get(m, m), v)}
        for m in local_open.findall(text) + opens.findall(text):
            opened |= {m, alias.get(m, m)}
        refs[f] = (qual, opened, set(re.findall(name_re, text)))

out = []
for mli in glob.glob("lib/*/*.mli"):
    base = os.path.basename(mli)[:-4]
    stack = [base[0].upper() + base[1:]]  # enclosing modules; None: a module type
    own = (mli, mli[:-1])
    for line in open(mli, encoding="latin-1"):
        if re.match(r"\s*module\s+type\b.*\bsig\s*$", line):
            stack.append(None)
        elif m := re.match(rf"\s*module\s+({mod_re})\s*:\s*sig\s*$", line):
            stack.append(m.group(1))
        elif re.match(r"\s*end\b", line) and len(stack) > 1:
            stack.pop()
        elif (m := re.match(rf"\s*val\s+([a-z_][A-Za-z0-9_']*)", line)) and None not in stack:
            mod, name = stack[-1], m.group(1)
            if not any((mod, name) in q or (mod in o and name in t)
                       for f, (q, o, t) in refs.items() if f not in own):
                out.append(f"{mli} {name}")
print("\n".join(sorted(out, key=lambda s: s.encode())))
PY
if ! diff lib/unreferenced-exports.txt "$exports/unreferenced" >&2; then
  echo "ci.sh: the exports nothing references changed (> new, < gone); delete or use a new" \
    "one, and drop a gone one from lib/unreferenced-exports.txt" >&2
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

# Fault-injection gate: the hostile-path scenario and the loss-rate sweep
# at quick size.
dune build @faults

# Cluster gate: the node-loss sweep of a replicated ring and the fleet
# sweep (the one-node ring) at quick size.
dune build @cluster

# Scenario gate: validate the declarative corpus and the sweeps, run them
# fast-sized with every invariant checked (the known-bad entries must
# fail), and smoke the fuzz/shrink path.
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

# Steady-benchmark gate: one short end-to-end run per workload, then one
# traced run. While it measures, perfbench checks every input against the
# lib/oracle reference models and the accounting identities, and every
# replay against the first; the traced pass also checks its per-layer
# client against Client_cache. Each result line must report
# "correct": true and "failed": 0.
for workload in paper-g5 policies cluster-faults; do
  for trace in 0 1; do
    result=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace" \
      | tail -n 1)
    case "$result" in
      *'"correct": true,'*'"failed": 0,'*) ;;
      *)
        echo "ci.sh: perfbench $workload --trace $trace failed its checks: $result" >&2
        exit 1
        ;;
    esac
  done
done
# Layout gate: perfbench scales its timings by a calibration loop in
# camlDune__exe__Main, linked right after caml_startup's generated code,
# and its offset within its 4 KiB page moved a workload's reading by
# 6-17% with no executed instruction changed. Library code size moves it
# by whole pages only; the offset follows the set of linked compilation
# units (caml_startup makes one call per unit, and a library module is
# linked only while some linked code references one of its values) and
# the caml_applyN/caml_curryN functions the startup file generates for
# the arities the linked code uses. The run fails when the page offset
# or the sorted unit set (the .code_begin symbols) differs from the
# committed lib/perfbench-link.txt: a change that must move either
# updates that file and says why. The address itself is printed.
if command -v nm > /dev/null; then
  symbols=$(nm -n .bench_build/default/perfbench/main.exe)
  addr=$(printf '%s\n' "$symbols" | sed -n 's/ T camlDune__exe__Main.code_begin$//p')
  if [ -z "$addr" ]; then
    echo "ci.sh: no camlDune__exe__Main.code_begin in the release perfbench binary" >&2
    exit 1
  fi
  printf 'ci.sh: perfbench calibration loop at camlDune__exe__Main.code_begin = 0x%s\n' "$addr"
  {
    printf 'camlDune__exe__Main.code_begin page offset 0x%x\n' $((0x$addr % 4096))
    printf '%s\n' "$symbols" | sed -n 's/^[0-9a-f]* T \(.*\)\.code_begin$/\1/p' | LC_ALL=C sort
  } > "$exports/perfbench-link"
  if ! diff lib/perfbench-link.txt "$exports/perfbench-link" >&2; then
    echo "ci.sh: the release perfbench binary's calibration-loop page offset or linked units" \
      "changed (> new, < committed); keep them, or update lib/perfbench-link.txt and say why" >&2
    exit 1
  fi
fi

# The probes and relinks of Agg_util.Int_table and Agg_util.Dlist_arena
# are [@inline]: without flambda anything else is a call on every access.
# The release perfbench binary must call none of them out of line (their
# rare paths, Int_table.set_slow and Dlist_arena.grow, are calls by
# design).
if command -v objdump > /dev/null; then
  calls=$(objdump -d --no-show-raw-insn .bench_build/default/perfbench/main.exe \
    | grep -E 'call.*<camlAgg_util__(Int_table\.(get|mem|remove|set)|Dlist_arena\.(link_after|unlink|alloc|release))_[0-9]+>' \
    || true)
  if [ -n "$calls" ]; then
    echo "ci.sh: the release perfbench binary calls inlined primitives out of line:" >&2
    printf '%s\n' "$calls" | sed -E 's/.*<(caml[^>]*)_[0-9]+>.*/\1/' | sort | uniq -c >&2
    exit 1
  fi
fi

# `dune runtest` builds with -opaque, so no test runs the inlined code
# perfbench measures: run every suite and both goldens once more against
# the release build.
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build --profile release @runtest

# Optional larger fuzz budget for nightly-style runs.
if [ -n "${DIFFERENTIAL_OPS:-}" ]; then
  dune exec bin/aggsim.exe -- differential --ops "$DIFFERENTIAL_OPS" --quick
fi

# The quick checks pass rewrites BENCH_sweep.json in its working
# directory; run it from a scratch one so the committed ledger stays as
# it is (the checks section reads no files).
dune build ./bench/main.exe
root=$(pwd)
scratch=$(mktemp -d)
trap 'rm -rf "$exports" "$scratch"' EXIT
(cd "$scratch" && "$root/_build/default/bench/main.exe" checks --quick)

# Full-size golden: every result section of the harness at full size, at
# --jobs 1 and at --jobs 2, must print bench/golden/full.expected and write
# the result ledgers committed at the repo root, byte for byte. run.sh is
# the script behind the quick golden in `dune runtest`; it also parses
# every ledger the run writes (BENCH_sweep.json included) with
# `python3 -m json.tool`.
{
  cat bench/golden/full.expected
  for ledger in faults cluster scenarios telemetry weighted; do
    printf '\n==== BENCH_%s.json ====\n' "$ledger"
    cat "BENCH_$ledger.json"
  done
} > "$scratch/full.expected"
for jobs in 1 2; do
  (cd "$scratch" && sh "$root/bench/golden/run.sh" "$root/_build/default/bench/main.exe" \
    "$root/scenarios" "$jobs" full) > "$scratch/full.out"
  if ! diff "$scratch/full.expected" "$scratch/full.out" > "$scratch/full.diff"; then
    echo "ci.sh: the full-size harness run at --jobs $jobs differs from bench/golden/full.expected" \
      "and the committed ledgers:" >&2
    head -n 60 "$scratch/full.diff" >&2
    exit 1
  fi
done

# A partial run adds to the sweep ledger: with a ledger whose header
# (jobs, events, seed, quick) matches the run, running one section keeps
# every other section's entry.
merged=$(mktemp -d)
trap 'rm -rf "$exports" "$scratch" "$merged"' EXIT
(cd "$merged" && "$root/_build/default/bench/main.exe" fig5 --quick --jobs 1 > /dev/null \
  && "$root/_build/default/bench/main.exe" workloads --quick --jobs 1 > /dev/null)
for name in fig5 workloads; do
  if ! grep -q "\"name\": \"$name\"" "$merged/BENCH_sweep.json"; then
    echo "ci.sh: a run of one section dropped $name from BENCH_sweep.json:" >&2
    cat "$merged/BENCH_sweep.json" >&2
    exit 1
  fi
done
# A kept entry is written back exactly as it was read: a later swept run
# of another section leaves every figure of the fig5 entry, its rounded
# speed-up included, byte for byte.
(cd "$merged" && "$root/_build/default/bench/main.exe" fig5 --quick --sweep --jobs 2 > /dev/null \
  && grep -o '{"name": "fig5"[^}]*}' BENCH_sweep.json > fig5.entry \
  && "$root/_build/default/bench/main.exe" fig7 --quick --sweep --jobs 2 > /dev/null)
if ! grep -o '{"name": "fig5"[^}]*}' "$merged/BENCH_sweep.json" | diff "$merged/fig5.entry" - >&2; then
  echo "ci.sh: a swept run of fig7 rewrote the fig5 entry of BENCH_sweep.json" >&2
  exit 1
fi

# The extension passes are sections: naming one runs it alone, so it
# writes its ledger and a sweep ledger whose only entry is itself, and no
# micro ledger.
passes=$(mktemp -d)
trap 'rm -rf "$exports" "$scratch" "$merged" "$passes"' EXIT
(cd "$passes" && "$root/_build/default/bench/main.exe" telemetry --quick > /dev/null)
if [ ! -e "$passes/BENCH_telemetry.json" ] || [ -e "$passes/BENCH_micro.json" ] \
  || ! python3 -c 'import json, sys
sys.exit([s["name"] for s in json.load(open(sys.argv[1]))["sections"]] != ["telemetry"])' \
    "$passes/BENCH_sweep.json"; then
  echo "ci.sh: bench/main.exe telemetry --quick did not run exactly the telemetry section:" >&2
  ls "$passes" >&2
  exit 1
fi

# Sparse file ids: a valid five-line trace whose ids are 10^12 must not
# make the entropy commands size a table by the largest id (they died
# with an uncaught Out_of_memory), nor the simulators: the filtered
# entropy, the client replay and the cluster scenario below run on it
# too, as the interner keeps ids past 2^30 in a side table. Ids near
# 10^9 must not either: every Int_table (cache indexes, speculative
# sets, tracker intern tables) allocates pages only where keys land, and
# the client replay and the filtered entropy died there when a table
# spanned the id space. The address-space cap turns such a table into a
# failure here rather than a machine that swaps.
dune build ./bin/aggsim.exe
printf '#aggtrace v1\n0 r 0 1000000000000\n1 r 0 1000000000001\n2 r 0 1000000000000\n3 r 0 1000000000001\n4 r 0 1000000000000\n' \
  > "$scratch/sparse.trc"
for cmd in stats entropy predictability; do
  if ! (ulimit -v 2000000 && "$root/_build/default/bin/aggsim.exe" "$cmd" -i "$scratch/sparse.trc" > /dev/null); then
    echo "ci.sh: aggsim $cmd failed on a trace with sparse file ids" >&2
    exit 1
  fi
done
printf '#aggtrace v1\n0 r 0 1000000000\n1 r 0 1000000001\n2 r 0 1000000000\n3 r 0 1000000001\n4 r 0 1000000000\n' \
  > "$scratch/sparse9.trc"
# The filter's LRU sees dense keys too, so ids near 10^12 pass it.
for ids in sparse9:10^9 sparse:10^12; do
  name=${ids%%:*}
  if ! (ulimit -v 2000000 && "$root/_build/default/bin/aggsim.exe" entropy --filter 100 \
    -i "$scratch/$name.trc" > /dev/null); then
    echo "ci.sh: aggsim entropy --filter 100 failed on a trace with file ids near ${ids#*:}" >&2
    exit 1
  fi
done
# The engine keys its tables by dense keys, but its events must name the
# trace's own ids: a leaked key would print 0 or 1.
for ids in sparse9:1000000000 sparse:1000000000000; do
  name=${ids%%:*}
  id=${ids#*:}
  if ! (ulimit -v 2000000 && "$root/_build/default/bin/aggsim.exe" trace -o "$scratch/$name.jsonl" \
    -i "$scratch/$name.trc" > /dev/null); then
    echo "ci.sh: aggsim trace -o failed on a trace with file ids near $id" >&2
    exit 1
  fi
  if ! grep -q "\"file\":$id[,}]" "$scratch/$name.jsonl" \
    || ! grep -q "\"file\":$((id + 1))[,}]" "$scratch/$name.jsonl" \
    || grep -qE '"(file|anchor|prev|next)":[01][,}]' "$scratch/$name.jsonl"; then
    echo "ci.sh: aggsim trace -o named a file of a trace with ids near $id by another number:" >&2
    cat "$scratch/$name.jsonl" >&2
    exit 1
  fi
done
# A cluster run keys its caches and trackers by files renumbered densely
# in order of first access, so the same ids replayed from a scenario
# through a five-node ring with three-way groups, a node leaving and
# rejoining, and message loss, outages and slow links stay within the cap
# too. The two fetches of the ids near 10^12 meet no fault, so only the
# ids near 10^9 must see timeouts.
for name in sparse9 sparse; do
  printf '#scenario v1\nname sparse-cluster\nworkload trace file=%s\ntopology cluster nodes=5 replicas=3 placement=group ring_seed=23 clients=2 client_capacity=150 node_capacity=300\nchurn time=1 op=leave node=4\nchurn time=3 op=join node=4\nfaults seed=11 loss=0.6 outage_period=2 outage_rate=0.5 outage_length=1 slow=0.5 slow_mult=4 crash=0.2\npolicy lru\npolicy g5\ninvariant conservation\ninvariant every_request_served\n' \
    "$scratch/$name.trc" > "$scratch/$name.scn"
  if ! (ulimit -v 2000000 && "$root/_build/default/bin/aggsim.exe" scenario run -f "$scratch/$name.scn" \
    > "$scratch/$name.out") || ! grep -q 'rebalances=2' "$scratch/$name.out" \
    || ! grep -q 'check every_request_served pass' "$scratch/$name.out" \
    || { [ "$name" = sparse9 ] && ! grep -q 'faults.timeouts=[1-9]' "$scratch/$name.out"; }; then
    echo "ci.sh: a cluster scenario failed on the sparse-id trace $name.trc:" >&2
    cat "$scratch/$name.out" >&2
    exit 1
  fi
done

# Extreme capacities: every policy sizes its arrays by its residents, so a
# capacity of 10^12 (or max_int, where capacity + 2 used to overflow) must
# run in a few pages under the same cap, from the CLI and from a scenario
# file, and never die with an uncaught exception (exit 125).
printf '#scenario v1\nname huge-client\nworkload profile name=server events=200 seed=7\ntopology path client_capacity=1000000000000 server_capacity=300\npolicy lru\npolicy g5\n' \
  > "$scratch/huge.scn"
for cmd in "trace -p server --events 200 --capacity 1000000000000" \
  "entropy -p server --events 200 --filter 1000000000000" \
  "scenario run -f $scratch/huge.scn" \
  "trace -p server --events 200 --capacity 4611686018427387903" \
  "entropy -p server --events 200 --filter 4611686018427387903"; do
  status=0
  # shellcheck disable=SC2086
  (cd "$scratch" && ulimit -v 2000000 && "$root/_build/default/bin/aggsim.exe" $cmd > /dev/null 2> "$scratch/huge.err") \
    || status=$?
  if [ "$status" -ne 0 ] && { [ "$status" -eq 125 ] || [ "$(wc -l < "$scratch/huge.err")" -ne 1 ]; }; then
    echo "ci.sh: aggsim $cmd exited $status:" >&2
    cat "$scratch/huge.err" >&2
    exit 1
  fi
done

# Out-of-range counts are rejected while the command line is parsed: each
# case exits 124 with a one-line error naming the flag, and none may die
# with an uncaught exception (exit 125) from inside a run. The commands
# run from the scratch directory, so nothing they could write lands here.
rejects() {
  flag=$1
  shift
  status=0
  (cd "$scratch" && "$root/_build/default/bin/aggsim.exe" "$@") \
    > "$scratch/reject.out" 2> "$scratch/reject.err" || status=$?
  if [ "$status" -ne 124 ] || grep -q 'uncaught exception' "$scratch/reject.err" \
    || ! head -n 1 "$scratch/reject.err" | grep -q -- "$flag"; then
    echo "ci.sh: aggsim $* exited $status instead of rejecting $flag at parse time:" >&2
    cat "$scratch/reject.err" >&2
    exit 1
  fi
}
rejects --length entropy --length 0
rejects --length entropy --length=-3
rejects --filter entropy --filter 0
rejects --size groups --size 0
rejects --capacity trace --capacity 0
rejects --group-size trace --group-size 0
for cmd in generate stats fig3 fig4 fig5 fig7 fig8 weighted summary checks differential \
  ablations entropy groups predictability trace profile telemetry; do
  rejects --events "$cmd" --events=-5
done

status_on_exit=$(tree_status)
if [ "$status_on_entry" != "$status_on_exit" ]; then
  echo "ci.sh: the run changed the working tree (git status --porcelain before/after):" >&2
  printf '%s\n' "$status_on_entry" > "$scratch/status.entry"
  printf '%s\n' "$status_on_exit" > "$scratch/status.exit"
  diff "$scratch/status.entry" "$scratch/status.exit" >&2 || true
  exit 1
fi
