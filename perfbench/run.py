#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/WORKLOADS.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test      # build and run the benchmark's tests

Run from the repository root. Builds perfbench/ (which compiles the engine
from src/) into $CARGO_TARGET_DIR, default .bench_build, then runs the driver
hermetically: every process gets a fresh private TMPDIR (JIT scratch) and
AVM_SPILL_DIR, and no other AVM_* variable, so the trace cache is in-memory
only and all engine settings are defaults. Files left in those directories
after a process exits count as failures.

--trace 0 runs four probe processes (set-up and first query only) and one
timed process; setup_s and first_query_ms are medians over the three fresh
processes. --trace 1 runs one traced process and writes its spans next to
the result record under <build dir>/out/.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json with their units.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Probe processes per timed run: at least PROBES_MIN, then more while the
# probes took under PROBE_SECONDS (cheap set-ups get more samples); half run
# before the timed process and half after it.
PROBES_MIN = 4
PROBES_MAX = 12
PROBE_SECONDS = 8
# Wall-time limit for all processes of one run after the build.
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(bdir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "session.h")):
        raise RuntimeError("engine sources not found under src/")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target"] +
                   targets, check=True, stdout=sys.stderr)


def leftover_files(path):
    return [os.path.join(d, f) for d, _, files in os.walk(path) for f in files]


def private_env(scratch):
    """Environment without AVM_* settings, with private temp and spill
    directories under `scratch`."""
    tmp = os.path.join(scratch, "tmp")
    spill = os.path.join(scratch, "spill")
    os.makedirs(tmp)
    os.makedirs(spill)
    env = {k: v for k, v in os.environ.items() if not k.startswith("AVM_")}
    env["TMPDIR"] = tmp
    env["AVM_SPILL_DIR"] = spill
    return env


def run_hermetic(bdir, argv, deadline):
    """Run one driver process in private scratch dirs; returns
    (last-line JSON, leftover file count)."""
    scratch = os.path.join(bdir, "scratch", "run-%d-%d" %
                           (os.getpid(), time.monotonic_ns()))
    env = private_env(scratch)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("driver exceeded the run time limit")
    # The driver waits for its compiler children; make sure none survived.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        log("killed processes left behind by the driver")
    except ProcessLookupError:
        pass
    left = leftover_files(scratch)
    for f in left:
        log("leftover temp file: " + os.path.relpath(f, scratch))
    shutil.rmtree(scratch)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("driver exited with code %d" % proc.returncode)
    return json.loads(lines[-1]), len(left)


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def stamp(bdir, info):
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or "none"
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition("=")
            if sep and ":" in key:
                cache[key.split(":")[0]] = value
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    ver = subprocess.run([cxx, "--version"], capture_output=True, text=True)
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": (ver.stdout.splitlines() or [cxx])[0],
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_tier": info.get("kernel_tier", ""),
        "jit_tier": info.get("jit_tier", ""),
    }


def run_benchmark(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise RuntimeError("unknown workload %s (have %s)" %
                           (args.workload, ", ".join(names)))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    bdir = build_dir()
    build(bdir, ["perfbench_driver"])
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    argv = [os.path.join(bdir, "perfbench_driver"), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace)]

    probes = []
    leftovers = 0

    def run_probes():
        # Half of the probes before the timed process and half after, so
        # their median spans the whole run rather than one stretch of it.
        nonlocal leftovers
        start = time.monotonic()
        n = 0
        while n < PROBES_MIN // 2 or (
                n < PROBES_MAX // 2 and
                time.monotonic() - start < PROBE_SECONDS / 2):
            r, left = run_hermetic(bdir, argv + ["--probe"], deadline)
            probes.append(r)
            leftovers += left
            n += 1

    if args.trace:
        argv += ["--spans", os.path.join(out_dir, "spans-%s.json" % tag)]
    else:
        run_probes()
    main_result, left = run_hermetic(bdir, argv, deadline)
    leftovers += left
    if not args.trace:
        run_probes()
    results = probes + [main_result]

    metrics = dict(main_result["metrics"])
    for key in ("setup_s", "first_query_ms"):
        if key in metrics:
            metrics[key] = statistics.median(r["metrics"][key]
                                             for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results) + leftovers
    missing = sorted(set(units) - set(metrics))
    for m in missing:
        log("metric not reported: " + m)
    correct = (all(r["correct"] for r in results) and failed == 0 and
               not missing)

    info = main_result.get("info", {})
    record = {"stamp": stamp(bdir, info), "info": info,
              "leftover_files": leftovers,
              "probes": [r["metrics"] for r in probes],
              "metrics": metrics}
    with open(os.path.join(out_dir, "result-%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }))


def run_tests():
    bdir = build_dir()
    build(bdir, ["perfbench_test"])
    scratch = os.path.join(bdir, "scratch", "test-%d" % os.getpid())
    env = private_env(scratch)
    rc = subprocess.run([os.path.join(bdir, "perfbench_test")],
                        env=env).returncode
    left = leftover_files(scratch)
    for f in left:
        log("leftover temp file: " + os.path.relpath(f, scratch))
    shutil.rmtree(scratch)
    return rc if rc != 0 else (1 if left else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true")
    args = p.parse_args()
    try:
        if args.test:
            return run_tests()
        if not args.workload:
            p.error("--workload is required")
        run_benchmark(args)
        return 0
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            json.JSONDecodeError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
