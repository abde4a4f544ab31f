#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in this directory).

Usage, from the repository root:

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

The last line of standard output is the JSON result. The Go build cache,
the binary and the span files of traced runs go under the build directory
($CARGO_TARGET_DIR if set, else .bench_build at the repository root), so
the benchmark reads and writes nothing outside the checkout.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd to completion, killing it (and waiting) on timeout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The benchmark builds the simulator from the checkout's sources and
    # checks its outputs against the committed results/.
    for need in ("go.mod", "internal", "results", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"run.py: {need} not found at {ROOT}; run from a full checkout", file=sys.stderr)
            return 2

    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        # Keeps the go command's config and telemetry files in the checkout.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "perfbench")
    rc = run(["go", "build", "-o", binary, "."], BUILD_TIMEOUT_S, cwd=HERE, env=env)
    if rc != 0:
        print(f"run.py: build failed ({rc})", file=sys.stderr)
        return 1

    cmd = [binary, "-root", ROOT, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace:
        cmd += ["-spans", os.path.join(build, "spans", f"{args.workload}-seed{args.seed}.json")]
    return run(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
