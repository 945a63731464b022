"""One fresh-process run of a workload; started by ``run.py``.

Modes:

* ``setup``: time ``import sconv`` plus ``load_scenario`` of every scenario
  the workload reads, then exit;
* ``run``: set up, then call the workload's subcommands through
  ``sconv.cli.main`` back to back and time them (wall, process CPU, peak RSS);
* ``trace``: as ``run``, with the layer tracer installed after set-up; the
  spans are written to ``<result>.spans.json`` after timing ends;
* ``probe``: set up, then make the known-failure probe call ``--probe``
  (untimed); the CLI's error message goes to standard error as usual.

The result is a JSON object written to ``--result``.  The exit code is the
largest code a subcommand returned.
"""

import argparse
import json
import os
import resource
import sys
import time

import tracer
from workloads import PROBE_DIR, PROBES, WORKLOADS, job_argv

# the sources of the checkout this benchmark sits in
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--case", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace", "probe"))
    parser.add_argument("--probe", choices=sorted(PROBES))
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    jobs = WORKLOADS[args.workload]["jobs"]

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    from sconv import cli

    for _, scenario, _ in jobs:
        if scenario is not None:
            cli.load_scenario(os.path.join(args.case, scenario))
    result = {"setup_s": time.perf_counter() - t0}

    if args.mode == "setup":
        codes = []
    elif args.mode == "probe":
        task, scenario = PROBES[args.probe]
        codes = [cli.main([task, "--scenario", os.path.join(PROBE_DIR, scenario),
                           "--out", args.out])]
    else:
        tr = tracer.Tracer().install() if args.mode == "trace" else None
        cpu0 = os.times()
        t1 = time.perf_counter()
        codes = [cli.main(job_argv(job, args.case, args.out)) for job in jobs]
        t2 = time.perf_counter()
        cpu1 = os.times()
        result.update(
            run_s=t2 - t1,
            cpu_s=(cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tr is not None:
            tr.uninstall()
            spans = tr.dump()
            with open(args.result + ".spans.json", "w", encoding="utf-8") as f:
                json.dump(spans, f)
            result["layers"] = tracer.layer_metrics(spans)
            result["rebound"] = tr.rebound
    result["exit_codes"] = codes
    result["versions"] = _versions()
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return max(codes, default=0)


if __name__ == "__main__":
    sys.exit(main())
