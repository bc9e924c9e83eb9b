#!/usr/bin/env python3
"""Builds and runs the hpres_bench end-to-end benchmark.

One measured run (the form BENCHMARK.json names; the last stdout line is
the result object):

    python3 benchmark/run.py --workload ycsb-a-16k --seed 1 --seconds 25 --trace 0

Repeated runs of every workload plus one traced run each, summarised as
median and quartiles per metric (optionally written as JSON for
compare.py):

    python3 benchmark/run.py [--runs 5] [--seed 1] [--out FILE] [--defects]

Quick check of every harness invariant at 2% scale:

    python3 benchmark/run.py --smoke

hpres_bench is built from ../src into .bench_build/ at the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hpres_bench")
BINARY = os.path.join(BUILD_DIR, "hpres_bench")
WORKLOADS = ["ycsb-a-16k", "ycsb-b-1k-wide", "ycsb-a-64k-bytes",
             "ycsb-b-16k-crash"]
RUN_TIMEOUT_S = 170
# Defect probes recorded beside the baseline (see README.md).
DEFECT_PROBES = {
    "a_torn_reads": ["--workload=ycsb-a-64k-bytes", "--shared-keys"],
    "b_repair_after_empty_restart": ["--workload=ycsb-b-16k-crash"],
    "c_intact_restart": ["--workload=ycsb-b-16k-crash", "--intact-restart"],
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds hpres_bench; exits 2 when that is impossible."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: library sources (src/) not found next to benchmark/")
        sys.exit(2)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(2)


def drive(args):
    """Runs hpres_bench once; returns (exit code, parsed record or None)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(opts):
    """The BENCHMARK.json contract: one run, result object last."""
    contract = load_contract()
    names = [m["name"] for m in
             contract["per_layer" if opts.trace else "end_to_end"]]
    build()
    args = [f"--workload={opts.workload}", f"--seed={opts.seed}",
            f"--seconds={opts.seconds}"]
    if opts.trace:
        args.append("--traced")
    code, rec = drive(args)
    if rec is None or code not in (0, 1):
        log(f"run.py: hpres_bench exited {code} without a result")
        return 1
    missing = [n for n in names if n not in rec["metrics"]]
    if missing:
        log("run.py: hpres_bench did not report", ", ".join(missing))
        return 1
    print(json.dumps({k: rec[k] for k in (
        "workload", "seed", "input_digest", "build_type", "rounds",
        "violations")}))
    print(json.dumps({
        "correct": bool(rec["correct"]),
        "attempted": int(rec["attempted"]),
        "failed": int(rec["failed"]),
        "metrics": {n: rec["metrics"][n] for n in names},
    }))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarise(runs):
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "unit": first["unit"], "n": len(values)}
    return out


def compiler_version():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    compiler = "c++"
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
    try:
        out = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout
        return out.splitlines()[0] if out else "unknown"
    except OSError:
        return "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def many_runs(opts):
    build()
    report = {"meta": {"seed": opts.seed, "runs": opts.runs,
                       "seconds": opts.seconds, "nproc": os.cpu_count(),
                       "machine": platform.machine(),
                       "compiler": compiler_version(), "git_sha": git_sha(),
                       "command": "python3 benchmark/run.py " +
                                  " ".join(sys.argv[1:])},
              "workloads": {}}
    rc = 0
    for w in WORKLOADS:
        runs = []
        for i in range(opts.runs):
            code, rec = drive([f"--workload={w}", f"--seed={opts.seed}",
                               f"--seconds={opts.seconds}"])
            if rec is None:
                log(f"run.py: {w} run {i + 1} produced no result")
                return 1
            rc |= code
            runs.append(rec)
            log(f"{w} run {i + 1}/{opts.runs}: host_kops "
                f"{rec['metrics']['host_kops']['value']:.2f} rounds "
                f"{rec['rounds']} correct {rec['correct']}")
        code, traced = drive([f"--workload={w}", f"--seed={opts.seed}",
                              "--traced"])
        if traced is None:
            log(f"run.py: {w} traced run produced no result")
            return 1
        rc |= code
        report["workloads"][w] = {
            "input_digest": runs[0]["input_digest"],
            "build_type": runs[0]["build_type"],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "summary": summarise(runs),
            "runs": [{n: m["value"] for n, m in r["metrics"].items()}
                     for r in runs],
            "traced": {n: m["value"] for n, m in traced["metrics"].items()},
            "units": {n: m["unit"] for n, m in traced["metrics"].items()},
        }
    if opts.defects:
        report["defects"] = {}
        for name, args in DEFECT_PROBES.items():
            _, rec = drive(args + [f"--seed={opts.seed}", "--traced"])
            if rec is None:
                log(f"run.py: defect probe {name} produced no result")
                return 1
            report["defects"][name] = {
                "args": args, "attempted": rec["attempted"],
                "failed": rec["failed"], "correct": rec["correct"],
                "metrics": {n: rec["metrics"][n]["value"] for n in (
                    "error_rate", "lost_keys", "redundancy_gap",
                    "workload.corrupt_reads",
                    "resilience.repair_keys_scanned",
                    "resilience.repair_fragments_rebuilt")}}
    print_table(report)
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if rc else 0


def print_table(report):
    for w, data in report["workloads"].items():
        print(f"\n== {w}  (input_digest {data['input_digest']}, "
              f"seed {report['meta']['seed']}, correct {data['correct']})")
        print(f"{'metric':40s} {'unit':>8s} {'median':>14s} {'q1':>14s} "
              f"{'q3':>14s}")
        for name, s in data["summary"].items():
            print(f"{name:40s} {s['unit']:>8s} {s['median']:14.6g} "
                  f"{s['q1']:14.6g} {s['q3']:14.6g}")
        print(f"-- traced run (per layer and critical path, simulated us/op "
              f"for cp.*)")
        for name, value in data["traced"].items():
            if name in data["summary"]:
                continue
            print(f"{name:40s} {data['units'][name]:>8s} {value:14.6g}")
    for name, d in report.get("defects", {}).items():
        print(f"\n== defect {name} ({' '.join(d['args'])}): "
              + ", ".join(f"{k} {v:.6g}" for k, v in d["metrics"].items()))


def smoke():
    build()
    t0 = time.monotonic()
    failures = 0
    for w in WORKLOADS:
        code, rec = drive([f"--workload={w}", "--seed=1", "--scale=0.02",
                           "--traced"])
        ok = code == 0 and rec is not None
        failures += 0 if ok else 1
        log(f"smoke {w}: {'ok' if ok else 'FAILED'}"
            + (f" {rec['violations']}" if rec and rec["violations"] else ""))
    log(f"smoke: {len(WORKLOADS) - failures}/{len(WORKLOADS)} workloads "
        f"clean in {time.monotonic() - t0:.1f} s")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--out", help="write the summary JSON here")
    p.add_argument("--defects", action="store_true",
                   help="also run the defect probes")
    p.add_argument("--smoke", action="store_true")
    opts = p.parse_args()
    if opts.smoke:
        return smoke()
    if opts.workload:
        return one_run(opts)
    return many_runs(opts)


if __name__ == "__main__":
    sys.exit(main())
