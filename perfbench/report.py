"""Run every workload over several seeds and print all metrics.

Usage, from the repository root::

    python3 perfbench/report.py [--workload NAME ...] [--seeds 0-9] [--baseline]

For each workload (all by default) it runs ``run.py --trace 0`` once per
seed, with ``run_seconds`` from ``BENCHMARK.json``, then ``run.py --trace 1``
once at the first seed.  It prints, per end-to-end metric, the median over
the seeds and the quartile spread: the distance between the first and third
quartiles (``statistics.quantiles``, ``n=4``) as a share of the median, next
to the metric's bound.  Then it prints ``fail_frac`` over all runs, the
probes and every per-layer metric of the traced run.  ``--baseline`` also
writes all of it to ``perfbench/baseline.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    with open(os.path.join(".perfbench_work", workload, "result.json"), encoding="utf-8") as f:
        details = json.load(f)
    return json.loads(proc.stdout.strip().splitlines()[-1]), details


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    report = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        attempted = failed = 0
        for seed in args.seeds:
            result, _ = _run(workload, seed, spec["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        traced, details = _run(workload, args.seeds[0], spec["run_seconds"], 1)
        entry = {"end_to_end": {}, "attempted": attempted, "failed": failed,
                 "per_layer_seed": args.seeds[0],
                 "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                 "probes": {p["label"][6:]: {"exit": p["exit"], "message": p["stderr"][-1:]}
                            for p in details["probes"]},
                 "provenance": details["provenance"]}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"], "values": vals}
            print(f"{workload} {m['name']}: median {med:.4f} {m['unit']}, quartile spread "
                  f"{(q3 - q1) / med:.4f} (bound {m['bound']})", flush=True)
        print(f"{workload} fail_frac: {failed}/{attempted}")
        for name, info in entry["probes"].items():
            print(f"{workload} probe {name}: exit {info['exit']} {' '.join(info['message'])}")
        for name, value in entry["per_layer"].items():
            print(f"{workload} {name}: {value:.6g} {traced['metrics'][name]['unit']}")
        report[workload] = entry
    if args.baseline:
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as f:
            json.dump({"seeds": args.seeds, "run_seconds": spec["run_seconds"],
                       "workloads": report}, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
