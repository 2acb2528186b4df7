#!/usr/bin/env python3
"""The benchmark's own tests: a short smoke of every workload.

    python3 perfbench/selftest.py

For each workload it checks that
  1. every end-to-end and per-layer metric in BENCHMARK.json prints,
     by name and with its unit, in the text and in the JSON line;
  2. a deliberately wrong reference digest is counted as a failed run,
     with both digests printed, and the benchmark exits nonzero;
  3. the traced mirror's stats dump agrees with the harness's, and a
     deliberately different mirror is refused.
Smoke runs use short experiments whose references are computed by the
naive interpreted loop, so the reference path is exercised too.
Exits nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
           "--smoke"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("no output from %s\n%s" % (" ".join(cmd), proc.stderr))
    return proc.returncode, lines, json.loads(lines[-1])


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def check_metrics(workload, trace, lines, result, spec):
    for m in spec:
        got = result["metrics"].get(m["name"])
        check(got is not None and got["unit"] == m["unit"] and any(
            l.split() [:1] == [m["name"]] and l.endswith(" " + m["unit"])
            for l in lines),
              "%s trace=%d prints %s in %s" % (workload, trace, m["name"],
                                               m["unit"]))
    check(set(result["metrics"]) == {m["name"] for m in spec},
          "%s trace=%d prints no unlisted metric" % (workload, trace))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (x["name"] for x in bench["workloads"]):
        code, lines, res = run(w, 0)
        check(code == 0 and res["correct"] and res["failed"] == 0,
              "%s smoke passes" % w)
        check_metrics(w, 0, lines, res, bench["end_to_end"])

        code, lines, res = run(w, 1)
        check(code == 0 and res["correct"]
              and not any(l.startswith("REFUSED") for l in lines),
              "%s mirror and harness stats dumps agree" % w)
        check_metrics(w, 1, lines, res, bench["per_layer"])

        code, lines, res = run(w, 0, "--wrong-reference")
        bad = [l for l in lines if l.startswith("FAILED")]
        check(code != 0 and not res["correct"] and res["failed"] >= 1 and
              bad and "resultDigest" in bad[0] and "reference" in bad[0],
              "%s counts a wrong reference digest as a failed run" % w)

        code, lines, res = run(w, 1, "--wrong-mirror")
        check(code != 0 and not res["correct"] and
              any(l.startswith("REFUSED") for l in lines),
              "%s refuses layer numbers from a mirror that differs" % w)
    print("selftest passed")


if __name__ == "__main__":
    main()
