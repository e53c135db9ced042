#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

The arguments go to e2e.exe unchanged (see e2ebench/README.md).  Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result.  The shared dune cache is disabled: everything the build writes
stays in this checkout's _build directory.
"""

import os
import shutil
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "run.py: not at the root of an ftrsn checkout "
            "(dune-project and lib/ are missing)\n")
        return 2
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        candidate = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
        dune = candidate if os.path.isfile(candidate) else None
    if dune is None:
        sys.stderr.write("run.py: dune not found on PATH\n")
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "e2ebench/e2e.exe", "bin/ftrsn_tool.exe"],
        env=dict(os.environ, DUNE_CACHE="disabled"), stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed (exit %d)\n" % build.returncode)
        return 1
    exe = os.path.join("_build", "default", "e2ebench", "e2e.exe")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
