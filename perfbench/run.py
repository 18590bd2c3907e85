#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The OCaml sources are compiled with dune into .bench_build/ with dune's
shared cache switched off, so the build reads the checkout and writes
nothing outside it. The executable (perfbench/main.ml) prints its result
as the last line of standard output; this script passes that line through
after checking its shape. It exits non-zero, printing no result, when the
checkout lacks the simulator's sources, the build fails, or the run
fails or overruns its time limit.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
SOURCES = ["dune-project", "lib", os.path.join("perfbench", "dune"), os.path.join("perfbench", "main.ml")]
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, env=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(cmd[0])} did not finish within {timeout:.0f} s", 1)
    return proc.returncode, out, err


def find_dune(env):
    dune = shutil.which("dune", path=env.get("PATH"))
    if dune:
        return dune
    prefix = env.get("OPAM_SWITCH_PREFIX")
    if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
        env["PATH"] = os.path.join(prefix, "bin") + os.pathsep + env.get("PATH", "")
        return os.path.join(prefix, "bin", "dune")
    fail("dune not found on PATH (nor under $OPAM_SWITCH_PREFIX/bin)")


def main():
    start = time.monotonic()
    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        fail("run from the root of a checkout of the simulator; missing " + ", ".join(missing))
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = find_dune(env)
    code, out, err = run([dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
                          "--profile", "release", "--display", "quiet", "./perfbench/main.exe"],
                         BUILD_TIMEOUT_S, env)
    if code != 0:
        sys.stderr.write(out + err)
        fail(f"build failed (dune exit {code})", 1)
    built = time.monotonic()
    # A cold build may take most of the first run's budget; every later
    # run (built in about a second) still ends within RUN_DEADLINE_S.
    timeout = max(RUN_DEADLINE_S - (built - start), 60)
    code, out, err = run([EXE] + sys.argv[1:], timeout)
    sys.stderr.write(err)
    if code != 0:
        fail(f"benchmark exited with {code}", code)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line", 1)
    if set(result) != RESULT_KEYS:
        fail("result line has the wrong keys", 1)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
