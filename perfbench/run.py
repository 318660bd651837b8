#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload discover --seed 1 --seconds 20 --trace 0

The build goes to the checkout's own _build (dune's shared cache is off,
so nothing is written outside the checkout). All arguments are passed to
perfbench/bench.ml; its last line of output is the result JSON. The exit
code is non-zero when the build or the run fails.
"""

import glob
import os
import shutil
import subprocess
import sys


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 1
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
