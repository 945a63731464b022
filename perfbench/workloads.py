"""Workload definitions shared by ``run.py``, the child process and the
catalog generator.

A workload is a list of ``sconv`` subcommands run back to back in one fresh
process.  Each job names its subcommand, the scenario file it reads (``None``
for ``verify``) and extra CLI flags.  Inputs live in the catalog:
``catalog/<workload>/s<k>/`` holds the scenario files of draw ``k`` and, under
``ref/``, the outputs commit 7f6c152 produced for them.  ``--seed s`` selects
draw ``s % CASES``; draw 0 is the unperturbed scenario set.
"""

import os

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOG = os.path.join(HERE, "catalog")
CASES = 16

# ``sconv verify`` reads its generator seed from the environment; pin it to
# the program's default so every run checks the same draws.
CHILD_ENV = {"SCONV_SEED": "42"}

WORKLOADS = {
    "markov-sc-report": {
        "jobs": [("sc-report", "sc_report.json", ["--threads", "2"])],
        "probes": [],
    },
    "quasifree-sc-report": {
        "jobs": [("sc-report", "sc_report.json", [])],
        "probes": ["quasifree-fit-window"],
    },
    "pinched-and-short-jobs": {
        "jobs": [
            ("sc-report", "sc_report.json", []),
            ("np-sweep", "np_sweep.json", []),
            ("ldp", "ldp.json", []),
            ("verify", None, []),
        ],
        "probes": ["qubit-fit-window", "gibbs-interacting"],
    },
}

# Known failures, run once per invocation outside timing.  Each entry is the
# CLI call and the scenario it reads (a file under ``probes/``); the recorded
# exit code and message are reported, so a later fix shows as a change.
PROBES = {
    "qubit-fit-window": ("sc-report", "qubit_r0.4.json"),
    "quasifree-fit-window": ("sc-report", "quasifree_r0.9.json"),
    "gibbs-interacting": ("hoeffding", "gibbs_zzx_onsite.json"),
}
PROBE_DIR = os.path.join(HERE, "probes")


def case_dir(workload, seed):
    return os.path.join(CATALOG, workload, f"s{seed % CASES:02d}")


def job_argv(job, case, out_dir):
    """CLI arguments of one job, reading its scenario from ``case``."""
    task, scenario, extra = job
    argv = [task, "--out", out_dir] + list(extra)
    if scenario is not None:
        argv += ["--scenario", os.path.join(case, scenario)]
    return argv
