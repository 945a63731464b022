"""sconv benchmark: run one workload the way users run the CLI and report.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``, which also
lists the metrics reported and their units.

Every timed run is a fresh ``python3`` process (``child.py``) that imports
``sconv`` from ``src/``, loads the scenario files of catalog draw
``N % CASES`` and calls the workload's subcommands through ``sconv.cli.main``.
Each run's outputs are compared cell by cell with the draw's reference
outputs (``check.py``).

Every invocation first starts one set-up-only process as a warm-up, so the
timed runs do not pay for a cold file cache or for compiling ``sconv``.
``--trace 0`` makes at least ``MIN_RUNS`` untraced runs, and another one
while it would end nearer to ``S`` seconds of runs than stopping does.  It
reports the end-to-end metrics as medians over the runs (``setup_s`` over at
least ``MIN_SETUP_SAMPLES`` fresh processes: the warm-up, the probes, the
runs and more set-up-only processes).  ``--trace 1`` makes one
untraced and one traced run and reports the per-layer metrics of the traced
one, with the tracing overhead as the difference of the two ``run_s``.
The known-failure probes of the workload run once per invocation, outside
timing, and are reported by name.

Human-readable lines go first; the last line of standard output is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  Full details are
written to ``.perfbench_work/<workload>/result.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from check import FLOAT_RTOL, compare_outputs  # noqa: E402
from workloads import CHILD_ENV, WORKLOADS, case_dir  # noqa: E402

MIN_RUNS = 2
MIN_SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # the whole invocation, probes and set-up included


def _load_spec(root):
    """``BENCHMARK.json`` at the repository root: run length and metric lists."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class Invocation:
    """One benchmark invocation: its paths, deadline and child processes."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.case = case_dir(workload, seed)
        self.work = os.path.join(root, ".perfbench_work", workload)
        self.deadline = time.perf_counter() + TIME_LIMIT_S
        self.env = dict(os.environ, **CHILD_ENV)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def _run(self, argv, env):
        """Run a child to completion (killed at the deadline); ``(code, stderr)``."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        try:
            proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, env=env, cwd=self.root, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"killed after {timeout:.0f} s"
        return proc.returncode, proc.stderr

    def child(self, mode, label, probe=None):
        """One fresh-process run of the workload; its outputs are checked."""
        out = os.path.join(self.work, label)
        result_path = out + ".json"
        argv = [sys.executable, os.path.join(HERE, "child.py"),
                "--workload", self.workload, "--case", self.case, "--out", out,
                "--mode", mode, "--result", result_path]
        if probe is not None:
            argv += ["--probe", probe]
        code, err = self._run(argv, self.env)
        result = {}
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as f:
                result = json.load(f)
        result.update(label=label, exit=code, stderr=err.strip().splitlines()[-3:])
        if mode in ("setup", "probe"):
            shutil.rmtree(out, ignore_errors=True)
            return result
        summary = os.path.join(out, "verify_summary.json")
        if os.path.exists(summary):
            with open(summary, encoding="utf-8") as f:
                result["verify_failed"] = json.load(f)["failed"]
        result["check"] = compare_outputs(out, os.path.join(self.case, "ref"))
        result["ok"] = code == 0 and "run_s" in result and result["check"]["ok"]
        shutil.rmtree(out, ignore_errors=True)
        return result


def _read_commit(root):
    """HEAD commit from ``.git`` without running git (absent in plain checkouts)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _provenance(root, workload, seed, versions):
    jobs = WORKLOADS[workload]["jobs"]
    threads = {task: (extra[extra.index("--threads") + 1] if "--threads" in extra else "1")
               for task, _, extra in jobs}
    blas_env = {k: os.environ.get(k, "unset")
                for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return dict(commit=_read_commit(root), **versions, nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)), blas_threads_env=blas_env,
                # when set, every process compiles sconv afresh during set-up
                pythondontwritebytecode=os.environ.get("PYTHONDONTWRITEBYTECODE", "unset"),
                cli_threads=threads, seed=seed,
                draw=os.path.basename(case_dir(workload, seed)))


def _describe(values, unit):
    med = statistics.median(values)
    return (f"{med:.4f} {unit}  median of {len(values)} "
            f"(min {min(values):.4f}, max {max(values):.4f}; too few samples for a "
            f"tail percentile)" if len(values) > 1 else f"{med:.4f} {unit}  (1 sample)")


def main():
    root = os.getcwd()
    spec = _load_spec(root)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(root, "src", "sconv", "cli.py")):
        sys.exit("perfbench: no sconv sources under ./src; run from the repository root")
    inv = Invocation(root, args.workload, args.seed)
    if not os.path.isdir(os.path.join(inv.case, "ref")):
        sys.exit(f"perfbench: catalog draw {inv.case} is missing")

    # warm-up: the first process after checkout fills the file cache and
    # compiles sconv; its set-up time is one of the set-up samples
    warmup = inv.child("setup", "warmup")
    probes = [inv.child("probe", f"probe-{name}", probe=name)
              for name in WORKLOADS[args.workload]["probes"]]

    if args.trace:
        runs = [inv.child("run", "untraced"), inv.child("trace", "traced")]
    else:
        # at least MIN_RUNS runs; then another only while it would end nearer
        # to --seconds than stopping now, and never past the deadline
        runs, start = [], time.perf_counter()
        while True:
            runs.append(inv.child("run", f"run{len(runs)}"))
            now = time.perf_counter()
            each = (now - start) / len(runs)
            if now + 2 * each > inv.deadline or (
                    len(runs) >= MIN_RUNS and now - start >= args.seconds - each / 2):
                break
    setups = [r["setup_s"] for r in [warmup] + probes + runs if "setup_s" in r]
    while len(setups) < MIN_SETUP_SAMPLES and time.perf_counter() + 5 < inv.deadline:
        s = inv.child("setup", f"setup{len(setups)}")
        if "setup_s" not in s:
            break
        setups.append(s["setup_s"])

    good = [r for r in runs if r["ok"]]
    timed = good or [r for r in runs if "run_s" in r]
    if not timed or not setups:
        for r in runs:
            print(f"{r['label']}: exit {r['exit']} {r['stderr']}", file=sys.stderr)
        sys.exit("perfbench: no run produced timings")
    failed = len(runs) - len(good)
    provenance = _provenance(root, args.workload, args.seed, timed[0]["versions"])

    e2e = {"setup_s": statistics.median(setups)}
    for name in ("run_s", "cpu_s", "peak_rss_mb"):
        e2e[name] = statistics.median(r[name] for r in timed)

    print(f"perfbench {args.workload}: seed {args.seed} (draw {provenance['draw']}), "
          f"trace {args.trace}, {len(runs)} runs")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    if not args.trace:
        for name, unit in ((m["name"], m["unit"]) for m in spec["end_to_end"]):
            values = setups if name == "setup_s" else [r[name] for r in timed]
            print(f"  {name:<12} {_describe(values, unit)}")
    print(f"  {'fail_frac':<12} {failed / len(runs):.4f}  ({failed} of {len(runs)} runs "
          "exited nonzero or failed the output check)")
    for r in runs:
        c = r["check"]
        state = "match" if c["ok"] else "MISMATCH " + "; ".join(c["problems"][:5])
        print(f"  outputs {r['label']}: {state} ({c['files']} files, rtol {FLOAT_RTOL:g}); "
              f"bytes identical to reference: {'yes' if c['bytes_identical'] else 'no'}")
        if r["exit"] != 0:
            print(f"  {r['label']} exit {r['exit']}: {' | '.join(r['stderr'])}")
    for p in probes:
        print(f"  probe {p['label'][6:]}: exit {p['exit']}: "
              f"{p['stderr'][-1] if p['stderr'] else ''}")

    if args.trace:
        untraced, traced = runs
        layers = dict(traced.get("layers", {}))
        layers["verify.checks_failed"] = traced.get("verify_failed", 0)
        layers["trace.run_s"] = traced.get("run_s", 0.0)
        layers["trace.untraced_run_s"] = untraced.get("run_s", 0.0)
        layers["trace.overhead_s"] = layers["trace.run_s"] - layers["trace.untraced_run_s"]
        covered = layers.pop("trace.covered_s", 0.0)
        layers["trace.covered_frac"] = covered / layers["trace.run_s"] if layers["trace.run_s"] else 0.0
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        if "layers" in traced and missing:
            sys.exit(f"perfbench: the trace gives no value for {', '.join(missing)}")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(inv.work, "result.json"), "w", encoding="utf-8") as f:
        json.dump({"result": result, "provenance": provenance, "probes": probes,
                   "runs": runs, "setup_samples": setups}, f, indent=1, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
