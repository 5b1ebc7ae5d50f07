#!/usr/bin/env python3
"""Build the host-time benchmark from source and run it.

Run from the repository root:

    python3 hostbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Every argument is passed to the benchmark binary (see main.go). The build
and the traced run's span files go under $CARGO_TARGET_DIR (default
.bench_build) in the repository root, and the Go build cache, temporary
files and toolchain state go there too, so nothing is written outside the
checkout. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.join(build_root, "hostbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    binary = os.path.join(out, "hostbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary, "--out-dir", out] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
