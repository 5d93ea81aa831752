#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload offline_paper|serve_stream|catalog_city \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the STiSAN libraries from ../src plus the perfbench
program) into .bench_build/ on first use, runs the chosen workload and passes
its output through. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero, without a result
line, when the sources are missing or the build fails, and with the
program's exit code when an output check fails.

    python3 perfbench/run.py --self-test    # the benchmark's own unit tests
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_id():
    """git commit when run inside a checkout of its own, else a digest of src/."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.realpath(top.stdout.strip()) == os.path.realpath(ROOT):
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no STiSAN sources under ./src; run from the repository root")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def run(cmd):
    """Runs cmd, streaming its stdout; kills it past the timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=["offline_paper", "serve_stream", "catalog_city"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_test"):
            return 2
        return run([os.path.join(BUILD_DIR, "perfbench_test")])
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build("perfbench"):
        return 2
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    sys.stdout.flush()
    return run([os.path.join(BUILD_DIR, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--commit", source_id(), "--trace-dir", trace_dir])


if __name__ == "__main__":
    sys.exit(main())
