#!/usr/bin/env python3
"""Build the benchmark runner and satd from source, then run one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The runner (benchmark/main.exe) is
built with dune next to bin/satd.exe; both land in _build/.  The runner
prints the run's context and, as the last line of standard output, one
JSON object with the metrics.  Build output goes to standard error.  If
the tree cannot be built (for instance when only the benchmark directory
is present) the script exits with status 2 and prints no result.

Extra arguments are passed through to the runner; --update-counters
records this run's seeded counters in benchmark/counters.json.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join(ROOT, ".benchmark-run")
COUNTERS = os.path.join(ROOT, "benchmark", "counters.json")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "benchmark"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    # The shared dune cache lives outside the tree; keep every write inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet",
           "./benchmark/main.exe", "./bin/satd.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    if not build():
        print("benchmark: cannot build the runner from this tree",
              file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    exe = os.path.join(ROOT, "_build", "default", "benchmark", "main.exe")
    satd = os.path.join(ROOT, "_build", "default", "bin", "satd.exe")
    # The socket path is relative to the run directory: Unix socket paths
    # are limited to about 100 bytes and checkouts can live deep.
    cmd = [exe, "--satd", satd, "--run-dir", ".", "--commit", revision(),
           "--counters", COUNTERS] + sys.argv[1:]
    # Its own process group, so that a timeout also stops the satd
    # daemon the runner may have started.
    proc = subprocess.Popen(cmd, cwd=RUN_DIR, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark: runner timed out", file=sys.stderr)
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
                proc.wait(timeout=5)
                break
            except (ProcessLookupError, subprocess.TimeoutExpired):
                pass
        return 2


if __name__ == "__main__":
    sys.exit(main())
