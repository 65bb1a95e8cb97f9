#!/usr/bin/env python3
"""Build the FastColumns benchmark from source and run one workload.

Run from the repository root:

    python3 fcbench/run.py --workload aps-grid --seed 1 --seconds 20 --trace 0

The Go build cache, the go command's temporary files and telemetry, the
binary and the traced run's spans all go to .bench_build/ under the
repository root, so nothing is written outside the checkout. Every
argument is passed to the benchmark binary; its last line of standard
output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
    )
    binary = os.path.join(BUILD, "fcbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("fcbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("fcbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
