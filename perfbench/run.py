#!/usr/bin/env python3
"""Benchmark entry point for the rts library.

Builds perfbench_driver from the checkout's sources, runs one workload, checks
its outputs and prints one JSON result line as the last line of stdout:

    python3 perfbench/run.py --workload sim-scalar --seed 7 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Any failed check exits nonzero without printing a result.
The full driver report (gauges, sample counts, checks, absent metrics with
their reasons, machine and build context) is written next to the build, in
.bench_build/out/.

    python3 perfbench/run.py --self-test

runs the gate's own tests: a tampered expected digest and a forced
batched/scalar mismatch must both fail, and a soak in which every election
was shed must report failed_share 1 and no latency figures.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
DRIVER = BUILD / "perfbench_driver"
EXPECTED = HERE / "expected_digests.json"
WORKLOADS = ("sim-scalar", "hw-service")
DRIVER_TIMEOUT_S = 170


class GateFailure(Exception):
    """A failed build, check or contract rule: report it, print no result."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise GateFailure(f"no rts source tree next to {HERE.name}/")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise GateFailure("build failed: " + " ".join(step))


def run_driver(workload, seed, seconds, trace, extra=()):
    OUT.mkdir(parents=True, exist_ok=True)
    command = [str(DRIVER), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(OUT), *extra]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise GateFailure(f"driver exceeded {DRIVER_TIMEOUT_S}s") from None
    if done.returncode != 0:
        raise GateFailure(f"driver exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise GateFailure("driver printed no report")
    return json.loads(lines[-1])


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def machine_context():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


def check_report(report, workload, seed, trace, expected_path):
    """Applies every gate to a driver report; returns the result line."""
    failed_checks = [c for c in report["checks"] if not c["ok"]]
    for check in failed_checks:
        log(f"check failed: {check['name']}: {check['detail']}")
    if failed_checks or not report["correct"]:
        raise GateFailure("output checks failed")

    if workload.startswith("sim-") and trace == 0:
        digests = json.loads(Path(expected_path).read_text())["paper-le"]
        expected = digests.get(str(seed))
        actual = sha256(report["reporter_file"])
        if expected is not None and actual != expected:
            raise GateFailure(f"reporter digest {actual} != recorded {expected} "
                              f"for seed {seed}")
        log(f"reporter sha256 {actual} "
            + ("matches the recorded digest" if expected else
               "(no recorded digest for this seed: batched == scalar and the "
               "fresh-path cross-check gate it)"))

    declared = declared_metrics(trace)
    metrics = {}
    for name, unit in declared.items():
        got = report["metrics"].get(name)
        if got is None:
            reason = report["absent"].get(name, "not reported")
            raise GateFailure(f"metric {name} absent: {reason}")
        if got["unit"] != unit or not math.isfinite(got["value"]):
            raise GateFailure(f"metric {name} malformed: {got}")
        metrics[name] = {"value": got["value"], "unit": unit}
    extra = sorted(set(report["metrics"]) - set(declared))
    if extra:
        raise GateFailure(f"metrics missing from BENCHMARK.json: {extra}")
    for name, reason in report["absent"].items():
        log(f"absent (not zero): {name}: {reason}")
    if report["attempted"] < 1:
        raise GateFailure("nothing attempted")
    return {"correct": True, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def run_workload(args):
    build()
    report = run_driver(args.workload, args.seed, args.seconds, args.trace,
                        ["--force-mismatch"] if args.force_mismatch else [])
    report["machine"] = machine_context()
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    result = check_report(report, args.workload, args.seed, args.trace,
                          args.expected)
    print(json.dumps(result), flush=True)


def self_test():
    """Each case runs this script (or the driver) and checks how it ends."""
    build()
    me = [sys.executable, str(Path(__file__).resolve())]
    default_seed = "2012"

    def run_me(*extra):
        return subprocess.run(me + list(extra), stdout=subprocess.PIPE,
                              text=True, timeout=900)

    OUT.mkdir(parents=True, exist_ok=True)
    tampered = OUT / "tampered_digests.json"
    digests = json.loads(EXPECTED.read_text())
    digests["paper-le"][default_seed] = "0" * 64
    tampered.write_text(json.dumps(digests))

    base = ["--seed", default_seed, "--seconds", "1", "--trace", "0"]
    outcomes = []
    genuine = run_me("--workload", "sim-scalar", *base)
    outcomes.append(("genuine digest passes", genuine.returncode == 0
                     and json.loads(genuine.stdout.splitlines()[-1])["correct"]))
    tamper = run_me("--workload", "sim-scalar", *base,
                    "--expected", str(tampered))
    outcomes.append(("tampered digest fails",
                     tamper.returncode != 0 and tamper.stdout.strip() == ""))
    mismatch = run_me("--workload", "sim-scalar", *base, "--force-mismatch")
    outcomes.append(("forced batched/scalar mismatch fails",
                     mismatch.returncode != 0 and mismatch.stdout.strip() == ""))
    shed = subprocess.run([str(DRIVER), "--self-test-shed"],
                          stdout=subprocess.PIPE, text=True, timeout=60)
    report = (json.loads(shed.stdout.splitlines()[-1])
              if shed.returncode == 0 else None)
    outcomes.append(("all-shed soak: failed_share 1, latency absent",
                     report is not None
                     and report["details"]["failed_share"] == 1.0
                     and "latency_p50_us" not in report["metrics"]
                     and "latency_p99_us" not in report["metrics"]
                     and "latency_p50_us" in report["absent"]))
    gated = False
    if report is not None:
        try:
            check_report(report, "hw-service", 0, 0, EXPECTED)
        except GateFailure:
            gated = True
    outcomes.append(("all-shed soak reports no numbers", gated))
    for name, ok in outcomes:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(ok for _, ok in outcomes) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    # Self-test hooks.
    parser.add_argument("--expected", default=str(EXPECTED),
                        help=argparse.SUPPRESS)
    parser.add_argument("--force-mismatch", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        run_workload(args)
    except GateFailure as failure:
        log(f"FAILED: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
