#!/usr/bin/env python3
"""Builds the end-to-end BOOM benchmark from source (once) and runs one measurement.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload ns_churn|fed_open|mr_jobs --seed N --seconds S \
      --trace 0|1 [--optimizer 0|1] [--threads N]

The build is a Release build of ../src plus the benchmark in perfbench/src, kept in
$CARGO_TARGET_DIR (default .bench_build) under the checkout root. Build output goes to a
log there; the benchmark's own stdout passes through unchanged, and its last line is the
JSON result. Traced runs also write the bench's spans to <build dir>/spans/. See
README.md.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
USAGE = ("usage: run.py --workload ns_churn|fed_open|mr_jobs --seed N --seconds S "
         "--trace 0|1 [--optimizer 0|1] [--threads N]")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (first time) and brings the benchmark binary up to date."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "boom_perfbench"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "boom_perfbench")


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or any(k not in args for k in
                            ("--workload", "--seed", "--seconds", "--trace")):
        fail(USAGE)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no BOOM sources under {root}/src; run from a full checkout")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(root, build_dir)

    cmd = [binary] + argv
    if args["--trace"] == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args['--workload']}-seed{args['--seed']}.jsonl")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s", code=3)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
