#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that imports the
repository's packages through a local replace, so it always measures the
source tree it sits in. Everything the build and the run write stays under
.bench_build/ in the working directory: the Go build cache, the binary and,
for traced runs, the span log. The last line of standard output is the
result JSON; the exit code is the benchmark's own (non-zero when it cannot
build or run, in which case no result is printed).
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    if traced(args):
        args += ["--spans", os.path.join(build, "spans-%d.jsonl" % os.getpid())]
    proc = subprocess.Popen([exe] + args, cwd=root, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def traced(args):
    for i, a in enumerate(args):
        if a == "--trace" and i + 1 < len(args):
            return args[i + 1] == "1"
        if a == "--trace=1":
            return True
    return False


if __name__ == "__main__":
    sys.exit(main())
