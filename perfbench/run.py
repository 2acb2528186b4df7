#!/usr/bin/env python3
"""memsec benchmark: one workload per call, every metric by name.

Run from the root of a memsec checkout:

    python3 perfbench/run.py --workload frfcfs_mcf --seed 1 \\
        --seconds 10 --trace 0

It builds the simulator and the perfbench binary from source (Release, into
.bench_build/perfbench), records provenance, fetches or computes the
reference digest of every experiment, runs the binary for --seconds,
prints each metric as `name = value unit`, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The exit code is
nonzero when any experiment failed or the build or checks did.

See perfbench/BENCHMARK.md for the workloads, metrics and how to
compare two commits.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ("frfcfs_mcf", "fs_rp_compiled", "fs_refresh_mix2", "cloud_mmpp")
# Distinct experiment seeds per workload seed; the batch cycles them.
EXPERIMENTS_PER_SEED = 4
# Workload seeds whose references are stored in references.json.
DEFAULT_SEEDS = range(0, 21)
MEASURE_TIMEOUT_S = 150


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def experiment_seeds(seed):
    """Experiment `seed` keys derived from the workload seed (splitmix64)."""
    out = []
    for j in range(EXPERIMENTS_PER_SEED):
        z = (seed * EXPERIMENTS_PER_SEED + j + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        out.append((z ^ (z >> 31)) % 2**31 + 1)
    return out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no memsec sources next to perfbench/ (expected src/CMakeLists.txt)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed (%s)" % log_path)


def perfbench(*args, timeout=MEASURE_TIMEOUT_S):
    """Run the perfbench binary; return its tagged JSON records."""
    try:
        proc = subprocess.run([BINARY] + list(args), cwd=ROOT, text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("perfbench timed out after %d s: %s" % (timeout, " ".join(args)), 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        die("perfbench exited with %d (a SimError panic, watchdog stop or "
            "refusal ends the process): %s"
            % (proc.returncode, " ".join(args)), 1)
    records = []
    for line in proc.stdout.splitlines():
        tag, _, body = line.partition(" ")
        records.append((tag, json.loads(body)))
    return records


def first(records, tag):
    return next(body for t, body in records if t == tag)


def source_hash():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "not a git checkout"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed):
    prov = first(perfbench("provenance"), "PROV")
    if prov["build_type"] == "Debug" or prov["sanitize"]:
        die("refusing to report numbers from a %s build (sanitize='%s')"
            % (prov["build_type"], prov["sanitize"]), 3)
    prov.update({
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "git": git_describe(),
        "src_sha256": source_hash(),
        "seed": seed,
    })
    return prov


def stored_references(workload):
    with open(REFERENCES) as f:
        return json.load(f)["workloads"].get(workload, {})


def references(workload, seeds, smoke):
    """Reference digest per experiment seed: stored data for the default
    seeds, else one naive interpreted run each, outside the timed region."""
    stored = {} if smoke else stored_references(workload)
    refs = {s: stored[str(s)] for s in seeds if str(s) in stored}
    missing = [s for s in seeds if s not in refs]
    if missing:
        args = ["reference", "--workload", workload,
                "--seeds", ",".join(map(str, missing))]
        for body in (b for t, b in perfbench(*args + (["--smoke"] if smoke
                                                   else [])) if t == "REF"):
            refs[int(body["seed"])] = body["digest"]
    return [refs[s] for s in seeds], len(missing)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail(xs):
    """The highest of p75/p90/p95/p99 with at least ten samples beyond
    it, as (percentile, value), or None for fewer than 40 samples."""
    for p in (99, 95, 90, 75):
        if len(xs) * (100 - p) >= 1000:
            return p, statistics.quantiles(xs, n=100)[p - 1]
    return None


def quartile(xs, k):
    """k-th quartile (1 = lower, 3 = upper); the value itself for one."""
    return statistics.quantiles(xs, n=4)[k - 1] if len(xs) > 1 else xs[0]


def end_to_end(exps, end):
    """Throughput is the lower quartile over the batch and run time the
    upper one: the level three in four experiments reach. Host noise
    here comes as bursts of faster experiments, which move a median
    between runs but not this level. Setup time is the median."""
    cps = [e["cycles"] / e["step_s"] for e in exps]
    run = [e["run_s"] for e in exps]
    print("medians over %d experiments: sim_cycles_per_s %.6g, run_s %.6g"
          % (len(exps), median(cps), median(run)))
    return {
        "sim_cycles_per_s": (quartile(cps, 1), "cycles/s"),
        "run_s": (quartile(run, 3), "s"),
        "setup_s": (median([e["setup_s"] for e in exps]), "s"),
        "peak_rss_mb": (end["peak_rss_kb"] / 1024.0, "MB"),
    }


SPANS = ("cpu.tick", "cpu.wake", "cpu.ff", "mem.tick", "mem.wake", "mem.ff",
         "sched.tick", "sched.wake")


def call_metric(span):
    layer, op = span.split(".")
    return layer + ".ticks" if op == "tick" else span + "_calls"


def per_layer(exps, traces):
    """Per-layer metrics: medians over the traced experiments. Host times
    are the traced run's self times; shares divide them by the traced
    step time only."""
    out = {}
    for name in ("sim.self",) + SPANS:
        out[name + "_s"] = (median([t["seconds"][name] for t in traces]), "s")
        out[name + "_share"] = (median([t["seconds"][name] / t["traced_step_s"]
                                        for t in traces]), "ratio")
        if name in SPANS:
            out[call_metric(name)] = (median([t["calls"][name]
                                              for t in traces]), "count")
    out["cpu.warmup_s"] = (median([t["warmup_s"] for t in traces]), "s")
    for name in traces[0]["counts"]:
        unit = "ratio" if name.endswith("_ratio") else (
            "nJ" if name.endswith("_nj") else "count")
        out[name] = (median([t["counts"][name] for t in traces]), unit)
    # Kernel cost per executed cycle, from the untraced partner runs.
    out["sim.ns_per_executed_cycle"] = (median(
        [e["step_s"] * 1e9 / e["executed"] for e in exps]), "ns")
    traced = median([t["cycles"] / t["traced_step_s"] for t in traces])
    untraced = median([t["cycles"] / t["untraced_step_s"] for t in traces])
    out["trace.overhead"] = (1.0 - traced / untraced, "ratio")
    # What one proxied call costs in place: the traced run's extra step
    # time over its untraced partner, per span.
    out["trace.span_ns"] = (median(
        [(t["traced_step_s"] - t["untraced_step_s"]) * 1e9
         / sum(t["calls"].values()) for t in traces]), "ns")
    return out


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short experiments, references always computed")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="corrupt one reference digest (self-test)")
    ap.add_argument("--wrong-mirror", action="store_true",
                    help="mirror a different seed than the harness runs "
                         "(self-test)")
    return ap.parse_args()


def main():
    args = parse_args()
    build()
    prov = provenance(args.seed)
    seeds = experiment_seeds(args.seed)
    refs, computed = references(args.workload, seeds, args.smoke)
    if args.wrong_reference:
        refs[0] = "%016x" % (int(refs[0], 16) ^ 1)

    cmd = ["measure", "--workload", args.workload,
           "--seeds", ",".join(map(str, seeds)), "--refs", ",".join(refs),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--wrong-mirror"] if args.wrong_mirror else []
    records = perfbench(*cmd)
    exps = [b for t, b in records if t == "EXP"]
    traces = [b for t, b in records if t == "TRACE"]
    end = first(records, "END")
    prov["loadavg_end"] = os.getloadavg()[0]

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("workload: %s  seed: %d  experiment seeds: %s  references "
          "computed: %d of %d" % (args.workload, args.seed, seeds, computed,
                                  len(seeds)))
    failed = 0
    for i, e in enumerate(exps):
        bad = not e["ok"]
        if bad:
            print("FAILED seed %d: %s (digest %s, reference %s)"
                  % (e["seed"], e["failure"], e["digest"], e["reference"]))
        if args.trace and not traces[i]["dump_match"]:
            bad = True
            print("REFUSED layer numbers, seed %d: mirror stats dump differs "
                  "from the harness (%s)" % (e["seed"], traces[i]["mismatch"]))
        failed += bad

    print("experiments: %d  failed: %d  failed_frac = %.4f"
          % (len(exps), failed, failed / len(exps)))
    metrics = (per_layer(exps, traces)
               if args.trace else end_to_end(exps, end))
    for name, (value, unit) in metrics.items():
        print("%-28s = %.6g %s" % (name, value, unit))
    for name in ("run_s", "setup_s"):
        t = tail([e[name] for e in exps])
        if t and not args.trace:
            print("%s p%d = %.6g s over %d experiments" % (name, t[0], t[1],
                                                          len(exps)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(exps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
