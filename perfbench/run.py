#!/usr/bin/env python3
"""Build the perfbench Go module from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload inproc-bulyan --seed 1 --seconds 20 --trace 0

Every build artifact (Go build cache, module cache, the binary) and every
file the benchmark writes (span dumps, determinism-digest records) stays
under .bench_build/ in the repository root. The build needs the repository's
own Go sources next to perfbench/; without them it fails and this script
exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOENV="off",
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.chdir(root)
    os.execve(binary, [binary, "-out", build] + sys.argv[1:], env)
    return 1  # not reached: execve replaces this process


if __name__ == "__main__":
    sys.exit(main())
