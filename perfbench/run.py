#!/usr/bin/env python3
"""End-to-end benchmark of the AMS reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit|sweep|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark package (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, then runs the C++ driver for one workload. The
driver prints human-readable metrics on stderr and, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("fit", "sweep", "serve")
RUN_TIMEOUT_S = 170
# Program settings that make it write files outside the work directory.
FILE_WRITING_ENV = ("AMS_CHECKPOINT_DIR", "AMS_FLIGHT_RECORDER",
                    "AMS_PROFILE_FILE", "AMS_RUN_LEDGER", "AMS_TELEMETRY_FILE",
                    "AMS_TRACE_FILE")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir, targets):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no repository sources under {root}/src; nothing to measure")
        return 2
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    workdir = os.path.join(root, ".bench_build", "run")
    try:
        if args.self_test:
            build(root, build_dir, ["perfbench_test"])
            return subprocess.run(
                [os.path.join(build_dir, "perfbench_test")]).returncode
        build(root, build_dir, ["perfbench_driver", "net_server_main"])
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--server={os.path.join(build_dir, 'net_server_main')}",
           f"--workdir={workdir}"]
    try:
        # The driver reaps the server it starts; the timeout only guards
        # against a hung driver.
        env = {k: v for k, v in os.environ.items()
               if k not in FILE_WRITING_ENV}
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=root, env=env)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
