#!/usr/bin/env python3
"""Build odad and the perfbench harness from the checkout, then run one
benchmark workload and pass its output through.

    python3 perfbench/run.py --workload ingest-flood --seed 1 --seconds 10 --trace 0

The last line of standard output is the result JSON. Everything is built
and run inside the checkout: binaries, the Go build cache and each run's
data directories live under the build directory ($CARGO_TARGET_DIR, or
.bench_build), and run directories are removed when the run ends.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def go_env(build):
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"), ("HOME", "home"),
                     ("XDG_CONFIG_HOME", "home/.config"), ("XDG_CACHE_HOME", "home/.cache")]:
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOTOOLCHAIN="local", GOFLAGS="-mod=mod", GOPROXY="off", GOENV="off", CGO_ENABLED="0")
    return env


def build(build_dir, env):
    """Builds odad from the tree under test and the harness; returns the
    two binary paths, or None when the tree cannot be built."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "cmd", "odad")):
        print("perfbench: %s holds no odad source tree" % ROOT, file=sys.stderr)
        return None
    bins = os.path.join(build_dir, "bin")
    os.makedirs(bins, exist_ok=True)
    odad, harness = os.path.join(bins, "odad"), os.path.join(bins, "perfbench")
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cwd, out, pkg in [(ROOT, odad, "./cmd/odad"), (BENCH_DIR, harness, ".")]:
            p = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT)
            if p.returncode != 0:
                sys.stderr.write(p.stdout.decode(errors="replace"))
                print("perfbench: building %s failed" % pkg, file=sys.stderr)
                return None
    return odad, harness


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.abspath(build_dir)
    env = go_env(build_dir)
    try:
        bins = build(build_dir, env)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if bins is None:
        return 1
    odad, harness = bins
    work = os.path.join(build_dir, "run-%d" % os.getpid())
    cmd = [harness, "-odad", odad, "-work", work, "-workload", args.workload,
           "-seed", str(args.seed), "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-spans", os.path.join(build_dir, "spans-%s.json" % args.workload)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT, file=sys.stderr)
        return 1
    finally:
        # The harness kills the daemons it starts; this catches any left
        # behind if it died abruptly.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
