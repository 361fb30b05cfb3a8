#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the library and the `sjbench`
program from source (CMake, Release) into the build directory named by
CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and relays
the program's report; the last stdout line is the JSON result. Build logs go
to stderr. Scratch files live in a per-run directory under the build
directory and are removed on exit.

--selftest runs every workload at a reduced scale and checks that a seed
repeats its checksums and deterministic counters exactly, that another
seed changes them, that the traced run reproduces the untraced counters,
and that tiger-stream and tiger-indexed agree on the join output.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("tiger-stream", "tiger-indexed", "service-refine")
# sjbench may run this much longer than --seconds: generator pick, set-up,
# warm-up and (traced) the standalone layer calls.
RUN_OVERHEAD_S = 140
BUILD_TIMEOUT_S = 800


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def paths():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    return bench_dir, root, build_root


def build(bench_dir, root, build_root):
    # One build directory per checkout: CMake's cache pins the source tree
    # by absolute path, so checkouts sharing a build root must not share it.
    key = hashlib.sha256(os.path.realpath(root).encode()).hexdigest()[:16]
    build_dir = os.path.join(build_root, "perfbench-" + key)
    binary = os.path.join(build_dir, "sjbench")
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S, check=False)
        if res.returncode != 0:
            log(f"build step failed ({res.returncode}): {' '.join(cmd)}")
            return None
    if not os.path.exists(binary):
        log("build produced no sjbench binary")
        return None
    return binary


def run_sjbench(binary, build_root, args, seconds):
    """Runs sjbench with `args`; returns (exit code, stdout text)."""
    tmp_parent = os.path.join(build_root, "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_parent)
    proc = subprocess.Popen([binary] + args + ["--tmp-dir", tmp_dir],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timeout = seconds + RUN_OVERHEAD_S
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"sjbench exceeded {timeout} s; killing it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 124, ""
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return proc.returncode, out


def counters(out):
    """The deterministic per-kind lines a run prints."""
    return sorted(l for l in out.splitlines() if l.startswith("counters "))


def checksum_of(lines):
    return {l.split()[1]: l.split()[2] for l in lines}


def selftest(binary, build_root):
    ok = True

    def check(cond, what):
        nonlocal ok
        log(("ok: " if cond else "FAILED: ") + what)
        ok = ok and cond

    def run(workload, seed, trace):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--scale", "0.1"]
        rc, out = run_sjbench(binary, build_root, args, 1)
        check(rc == 0, f"{workload} seed {seed} trace {trace} exits 0")
        return counters(out)

    per_workload = {}
    for workload in WORKLOADS:
        a = run(workload, 1, 0)
        b = run(workload, 1, 0)
        c = run(workload, 2, 0)
        t = run(workload, 1, 1)
        check(bool(a) and a == b, f"{workload}: seed 1 repeats its counters")
        check(bool(c) and all(x != y for x, y in zip(a, c)),
              f"{workload}: seed 2 changes every kind's counters")
        check(t == a, f"{workload}: the traced run reproduces the counters")
        per_workload[workload] = checksum_of(a)
    stream = set(per_workload["tiger-stream"].values())
    indexed = set(per_workload["tiger-indexed"].values())
    check(len(stream) == 1 and stream == indexed,
          "tiger-stream and tiger-indexed produce one checksum")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    bench_dir, root, build_root = paths()
    os.chdir(root)
    try:
        binary = build(bench_dir, root, build_root)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"build failed: {err}")
        return 2
    if binary is None:
        return 2
    if args.selftest:
        return selftest(binary, build_root)

    traces = os.path.join(build_root, "traces")
    os.makedirs(traces, exist_ok=True)
    sjbench_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        sjbench_args += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    rc, out = run_sjbench(binary, build_root, sjbench_args, args.seconds)
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("{"):
        # Aborted before a result: relay the report for diagnosis only.
        sys.stderr.write(out)
        log(f"sjbench failed with exit code {rc}")
        return rc if rc != 0 else 1
    # A result line; a failed output check makes it `"correct": false` and
    # the exit code nonzero.
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
