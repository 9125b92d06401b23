#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, print the result.

    python3 perfbench/run.py --workload fleet_live --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The driver (perfbench/driver.cc) is
built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; databases go to .bench_work/ and are
removed afterwards. The last line printed is the result object
{"correct", "attempted", "failed", "metrics"}. Exit status is 0 only when
that line was printed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("fleet_live", "sweep_dense")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
    return done.returncode == 0


def build(targets):
    """Configures (once) and builds `targets`; exits 1 on failure."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    # One build at a time per checkout.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            if not run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                               "-DCMAKE_BUILD_TYPE=Release"], log, 120):
                shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"configure failed; see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        if not run_logged(["cmake", "--build", str(out), "-j", jobs,
                           "--target", *targets], log, BUILD_TIMEOUT_S):
            fail(f"build failed; see {log}")
    return out


def validate(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("driver printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"metrics do not match BENCHMARK.json: "
             f"missing {sorted(set(wanted) - set(got))}, "
             f"extra {sorted(set(got) - set(wanted))}, "
             f"units {[n for n in wanted if n in got and got[n] != wanted[n]]}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's arithmetic tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no modb sources under {ROOT / 'src'}")
    if args.selftest:
        out = build(["perfbench_stats_test"])
        sys.exit(subprocess.run([str(out / "perfbench_stats_test")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    out = build(["perfbench_driver"])
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(out / "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        fail(f"driver exited with status {done.returncode}")
    result = validate(lines[-1], args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
