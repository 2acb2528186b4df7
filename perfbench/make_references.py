#!/usr/bin/env python3
"""Regenerate perfbench/references.json: the reference digest of every
experiment the default workload seeds run, each from one naive,
interpreted run (sim.fastforward=false, sim.compiled=off).

    python3 perfbench/make_references.py

A changed digest here means the simulated results changed; say why in
the change that regenerates it.
"""

import concurrent.futures
import json

import run


def digests(workload):
    seeds = sorted({s for seed in run.DEFAULT_SEEDS
                    for s in run.experiment_seeds(seed)})
    records = run.perfbench("reference", "--workload", workload,
                         "--seeds", ",".join(map(str, seeds)), timeout=3600)
    return {str(int(b["seed"])): b["digest"] for t, b in records
            if t == "REF"}


def main():
    run.build()
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        refs = dict(zip(run.WORKLOADS, pool.map(digests, run.WORKLOADS)))
    with open(run.REFERENCES, "w") as f:
        json.dump({"digest": "FNV-1a 64 of harness::resultDigest()",
                   "default_seeds": [min(run.DEFAULT_SEEDS),
                                     max(run.DEFAULT_SEEDS)],
                   "workloads": refs}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
