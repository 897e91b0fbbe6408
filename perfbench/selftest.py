#!/usr/bin/env python3
"""The benchmark's own tests: small inputs, every workload, both modes.

    python3 perfbench/selftest.py

Each workload runs on small inputs with and without tracing and must report
correct results and no failed operation. A run without tracing must print
exactly the end_to_end metrics of BENCHMARK.json, a traced run exactly its
per_layer metrics, names and units both, so the metric table in
src/per_layer.inc cannot drift from BENCHMARK.json. Then every check is fed
a deliberately perturbed result (--perturb) and must report the run as
incorrect with at least one failed operation, which shows that the check
can fail. Exits non-zero on the first surprise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PERTURBATIONS = {
    "housing_cofactor": ["housing.cofactor"],
    "triangle_count": ["triangle.fivm", "triangle.ivme", "triangle.brute"],
    "service_churn": ["service.snapshot", "service.count", "service.offers",
                      "service.epochs", "service.recovery"],
}


def run(workload, trace, perturb=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("FAIL %s: exit %d\n%s" % (" ".join(cmd), proc.returncode,
                                                 proc.stderr[-3000:]))
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {trace: {m["name"]: m["unit"] for m in bench[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def main():
    declared = declared_metrics()
    for workload, perturbs in PERTURBATIONS.items():
        for trace in (0, 1):
            res = run(workload, trace)
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                raise SystemExit("FAIL %s trace=%d: %s" % (workload, trace, res))
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            if printed != declared[trace]:
                raise SystemExit(
                    "FAIL %s trace=%d: metrics differ from BENCHMARK.json: "
                    "printed only %s, declared only %s, unit differs %s" % (
                        workload, trace,
                        sorted(set(printed) - set(declared[trace])),
                        sorted(set(declared[trace]) - set(printed)),
                        sorted(k for k in printed if k in declared[trace]
                               and printed[k] != declared[trace][k])))
            print("ok   %-16s trace=%d attempted=%d metrics=%d" %
                  (workload, trace, res["attempted"], len(res["metrics"])))
        for p in perturbs:
            res = run(workload, 0, p)
            if res["correct"] or res["failed"] < 1:
                raise SystemExit("FAIL %s: check %s passed a perturbed result "
                                 "(correct=%s failed=%d)" %
                                 (workload, p, res["correct"], res["failed"]))
            print("ok   %-16s perturbed %s is caught" % (workload, p))
    print("selftest passed")


if __name__ == "__main__":
    main()
