#!/usr/bin/env python3
"""Exact simulated-metric gate for the end-to-end benchmark.

Builds hpres_bench from benchmark/ (Release, into .sim_gate_build/ at the
repository root), runs the four workloads at a small fixed scale and
compares every simulated result *exactly* against tools/sim_baseline.json:

    python3 tools/sim_gate.py            # exit 1 and list every mismatch
    python3 tools/sim_gate.py --update   # rewrite the baseline

Simulated values are deterministic for a fixed seed and source tree, so
there is no tolerance: any change to a cost, a schedule or an RNG draw
moves some value and fails the gate. Host-time metrics (wall clock, RSS,
probes) are left out. A change that moves simulated values on purpose
regenerates the baseline with --update and says why.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS_DIR)
BASELINE = os.path.join(TOOLS_DIR, "sim_baseline.json")
BUILD_DIR = os.path.join(ROOT, ".sim_gate_build")
BINARY = os.path.join(BUILD_DIR, "hpres_bench")
WORKLOADS = ["ycsb-a-16k", "ycsb-b-1k-wide", "ycsb-a-64k-bytes",
             "ycsb-b-16k-crash"]
ARGS = ["--seed=1", "--scale=0.02", "--seconds=0", "--traced"]
RUN_TIMEOUT_S = 300

# Result fields compared besides the metrics.
FIELDS = ["input_digest", "attempted", "failed", "correct", "violations"]
# Metrics that measure the host, not the simulation.
HOST_METRICS = {
    "host_kops", "setup_s", "peak_rss_mib", "sim.host_ns_per_event",
    "sim.probe_ns_per_event", "workload.probe_keygen_ns",
    "workload.verify_ns_per_get", "workload.host_ns_per_op",
    "obs.trace_overhead", "resilience.repair_host_s",
}
HOST_PREFIXES = ("kv.probe_", "ec.probe_")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def is_host_metric(name):
    return name in HOST_METRICS or name.startswith(HOST_PREFIXES)


def build():
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B",
                 BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("sim_gate: build failed:", " ".join(cmd))
            sys.exit(2)


def toolchain():
    """Compiler and C library the results were produced with."""
    cc = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL, text=True).stdout
    compiler = cc.splitlines()[0] if cc else "?"
    return f"{compiler}; {' '.join(platform.libc_ver())}"


def simulated(workload):
    """Runs one workload; returns its simulated fields and metrics."""
    proc = subprocess.run([BINARY, f"--workload={workload}"] + ARGS,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        log(f"sim_gate: {workload}: no result (exit {proc.returncode})")
        sys.exit(2)
    rec = json.loads(lines[-1])
    out = {f: rec[f] for f in FIELDS}
    out["metrics"] = {name: m["value"] for name, m in rec["metrics"].items()
                      if not is_host_metric(name)}
    return out


def diff(workload, want, got):
    """Mismatch lines between a baseline entry and a fresh result."""
    lines = []
    for f in FIELDS:
        if want.get(f) != got.get(f):
            lines.append(f"{workload} {f}: baseline {want.get(f)!r}, "
                         f"now {got.get(f)!r}")
    wm, gm = want.get("metrics", {}), got["metrics"]
    for name in sorted(set(wm) | set(gm)):
        if wm.get(name) != gm.get(name):
            lines.append(f"{workload} {name}: baseline {wm.get(name)!r}, "
                         f"now {gm.get(name)!r}")
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--update", action="store_true",
                   help="rewrite the baseline from this tree's results")
    opts = p.parse_args()
    build()
    results = {}
    for w in WORKLOADS:
        results[w] = simulated(w)
        log(f"sim_gate: {w}: {len(results[w]['metrics'])} simulated metrics")
    if opts.update:
        with open(BASELINE, "w") as f:
            json.dump({"args": ARGS, "toolchain": toolchain(),
                       "workloads": results}, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"sim_gate: wrote {os.path.relpath(BASELINE, ROOT)}")
        return 0
    with open(BASELINE) as f:
        baseline = json.load(f)
    mismatches = []
    if baseline.get("args") != ARGS:
        mismatches.append(f"baseline args {baseline.get('args')} != {ARGS}")
    for w in WORKLOADS:
        mismatches += diff(w, baseline["workloads"].get(w, {}), results[w])
    for line in mismatches:
        print(line)
    if mismatches and baseline.get("toolchain") != toolchain():
        log(f"sim_gate: baseline toolchain {baseline.get('toolchain')!r}, "
            f"this host {toolchain()!r}")
    log(f"sim_gate: {len(mismatches)} mismatches over {len(WORKLOADS)} "
        "workloads" + ("" if not mismatches else
                       " (a deliberate change reruns with --update)"))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
