#!/usr/bin/env python3
"""Build the perfbench binary from the checkout's sources and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table2_full --seed 0 --seconds 30 --trace 0

The Go build cache, module cache and binary live under .bench_build/ in the
checkout, so the benchmark reads and writes nothing outside it. Every
argument is passed through to the binary, whose last line of standard output
is the JSON result.
"""
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("perfbench: go toolchain not found on PATH", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "home"), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")

    # On SIGTERM or SIGINT, kill the running child; run() then reaps it.
    signals, running = [], []

    def stop(signum, _frame):
        signals.append(signum)
        for p in running:
            p.kill()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    def run(cmd, **kwargs):
        p = subprocess.Popen(cmd, **kwargs)
        running.append(p)
        rc = p.wait()
        running.remove(p)
        return rc

    # go build is incremental: after the first build of a checkout it only
    # re-checks the sources, so every run measures the checkout's code.
    if run([go, "build", "-o", binary, "."], cwd=HERE, env=build_env()) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    rc = 2 if signals else run([binary] + sys.argv[1:], cwd=ROOT)
    return 128 + signals[0] if signals else rc


if __name__ == "__main__":
    sys.exit(main())
