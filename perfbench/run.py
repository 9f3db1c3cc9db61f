#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload adhoc-joins --seed 1 --seconds 20 --trace 0

The arguments are passed through to perfbench/main.exe; see
perfbench/NOTES.md for the workloads and metrics.  The build goes to
_build/ in the repository root with dune's shared cache disabled, so
nothing is written outside the tree.  Exits non-zero, without printing a
result, when the build fails.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "perfbench/main.exe"
# A run measures for --seconds (20 in BENCHMARK.json), on top of its
# repeated set-up and the oracle.  Whole runs measured with --seconds 20
# on a two-vCPU VM, build excluded:
#   untraced  adhoc-joins 28 s, service-mixed 27-42 s, reporting-dml 38-42 s
#   traced    adhoc-joins 33 s, service-mixed 39 s, reporting-dml 33 s
RUN_TIMEOUT_S = 170
# The first build in a fresh checkout compiles the whole engine.
BUILD_TIMEOUT_S = 600


# The child process running now, stopped with us on SIGTERM or SIGINT.
child = None


def stop(signum, _frame):
    if child is not None and child.poll() is None:
        child.kill()
        child.wait()
    sys.exit(128 + signum)


def run_child(cmd, env, timeout, **kw):
    """Run cmd to completion; its exit code and captured output, or None
    with the output so far when it ran past timeout (it is then killed)."""
    global child
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, **kw)
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out
    except subprocess.TimeoutExpired:
        child.kill()
        out, _ = child.communicate()
        return None, out


def build(env):
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet", TARGET]
    try:
        code, out = run_child(
            cmd, env, BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except OSError as e:
        sys.stderr.write("perfbench: cannot run dune: %s\n" % e)
        return False
    if code is None:
        sys.stderr.write("perfbench: build exceeded %d s\n" % BUILD_TIMEOUT_S)
        return False
    if code != 0:
        sys.stderr.write(out)
        sys.stderr.write("perfbench: build failed (exit %d)\n" % code)
        return False
    return True


def main():
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    # keep dune's cache off and any cache directory inside the tree
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(ROOT, ".perfbench_out", "cache"),
    )
    if not build(env):
        return 2
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    code, _ = run_child([exe] + sys.argv[1:], env, RUN_TIMEOUT_S)
    if code is None:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
