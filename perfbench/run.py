#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload bigmesh-l8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The script builds perfbench (this
directory's Go module) and cmd/swrank into the build directory
(.bench_build, or $CARGO_TARGET_DIR when set), keeping the Go build cache
there too, then runs the benchmark. Its standard output ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. The benchmark exits
non-zero, without that line, when the build or any workload step fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    bindir = os.path.join(build, "bin")
    os.makedirs(bindir, exist_ok=True)
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    steps = [
        (["go", "build", "-o", os.path.join(bindir, "perfbench"), "."], HERE),
        (["go", "build", "-o", os.path.join(bindir, "swrank"), "./cmd/swrank"], ROOT),
    ]
    for cmd, cwd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, timeout=840)
        if done.returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    cmd = [os.path.join(bindir, "perfbench"),
           "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", repr(args.seconds), "-trace", str(args.trace),
           "-swrank", os.path.join(bindir, "swrank"),
           "-out", os.path.join(build, "perfbench")]
    # A session of its own, so a timeout also stops the swrank processes
    # the benchmark started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
