"""Generate the benchmark's input catalog and capture reference outputs.

Run from the repository root::

    python3 perfbench/make_catalog.py [--workload NAME ...]

For every workload and draw ``k < CASES`` it writes the scenario files to
``perfbench/catalog/<workload>/s<k>/`` and the outputs of the current
``src/`` to ``.../ref/``.  Draw 0 is the unperturbed scenario set; draw
``k > 0`` perturbs the family parameters uniformly within the ranges below,
and places every tradeoff rate ``r`` at the same fraction of the perturbed
family's ``[D_bar, r_max]`` band as in draw 0, so each draw stays in the same
regimes (zero, interior, linear tail).  ``D_bar`` is the rate curve's right
derivative at 1 and ``r_max = polar(a_max) + a_max`` the start of the linear
tail.  The references are what the benchmark compares every run against, so
regenerate them only at a commit whose outputs are known good.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import CASES, CATALOG, CHILD_ENV, PROBE_DIR, WORKLOADS, job_argv  # noqa: E402


def _op(m):
    m = np.asarray(m, dtype=float)
    return {"dim": int(m.shape[0]), "re": [float(x) for x in m.ravel()],
            "im": [0.0] * m.size}


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _jitter(rng, k, center, half_width):
    """Draw 0 keeps ``center``; later draws add U(-w, w), rounded to 1e-4."""
    if k == 0:
        return center
    return round(center + rng.uniform(-half_width, half_width), 4)


def markov_family(rng, k):
    pi0 = _jitter(rng, k, 0.6, 0.05)
    pi1 = _jitter(rng, k, 0.5, 0.05)
    p01, p10 = _jitter(rng, k, 0.3, 0.05), _jitter(rng, k, 0.4, 0.05)
    q01, q10 = _jitter(rng, k, 0.5, 0.05), _jitter(rng, k, 0.55, 0.05)
    return {"kind": "markov", "scaling_exponent": 1, "payload": {
        "pi0": [pi0, round(1 - pi0, 4)], "pi1": [pi1, round(1 - pi1, 4)],
        "P0": [[round(1 - p01, 4), p01], [p10, round(1 - p10, 4)]],
        "P1": [[round(1 - q01, 4), q01], [q10, round(1 - q10, 4)]]}}


def qubit_family(rng, k):
    a = _jitter(rng, k, 0.85, 0.03)
    b = _jitter(rng, k, 0.7, 0.03)
    theta = _jitter(rng, k, 0.45, 0.05)
    rot = _rot(theta)
    sigma = rot @ np.diag([b, round(1 - b, 4)]) @ rot.T
    return {"kind": "iid", "scaling_exponent": 1, "payload": {
        "rho": _op(np.diag([a, round(1 - a, 4)])),
        "sigma": _op(0.5 * (sigma + sigma.T))}}


def quasifree_family(rng, k):
    qc = _jitter(rng, k, 0.2, 0.02)
    r0 = _jitter(rng, k, 0.45, 0.02)
    rc = _jitter(rng, k, -0.1, 0.02)
    rs = _jitter(rng, k, 0.05, 0.02)
    return {"kind": "quasifree", "scaling_exponent": 1, "payload": {
        "nu": 1,
        "q_symbol": {"constant": 0.5, "cos_coeffs": [qc], "sin_coeffs": []},
        "r_symbol": {"constant": r0, "cos_coeffs": [rc], "sin_coeffs": [rs]},
        "c_bound": 0.2}}


def binary_family(rng, k):
    p = _jitter(rng, k, 0.5, 0.05)
    q = _jitter(rng, k, 0.25, 0.05)
    return {"kind": "iid", "scaling_exponent": 1, "payload": {
        "rho": _op(np.diag([p, round(1 - p, 4)])),
        "sigma": _op(np.diag([q, round(1 - q, 4)]))}}


def _band(family, variant):
    """``(D_bar, r_max)`` of a family's rate curve."""
    from sconv import families as fam
    from sconv.hoeffding import polar_detail

    spec = fam.family_from_json(family)
    rate = fam.asymptotic_rate(spec, variant=variant)
    a_max = rate.slope_at_infinity
    return rate.right_derivative_at_1, polar_detail(rate, a_max).value + a_max


def _place(r_list, band0, band):
    """Move each ``r`` to the same fraction of ``band`` as it had in ``band0``."""
    (lo0, hi0), (lo, hi) = band0, band
    return [round(lo + (r - lo0) / (hi0 - lo0) * (hi - lo), 6) for r in r_list]


def _sc_report(make_family, r_grid, params):
    def build(k):
        rng = np.random.default_rng([k, len(r_grid), len(params["n_list"])])
        base = make_family(rng, 0)
        family = make_family(rng, k)
        variant = params.get("variant", "sandwiched")
        r = r_grid if k == 0 else _place(r_grid, _band(base, variant),
                                        _band(family, variant))
        return {"sc_report.json": {"task": "sc-report", "family": family,
                                   "params": dict(params, r_grid=r)}}
    return build


def _short_jobs(k):
    rng = np.random.default_rng([k, 4])
    return {
        "np_sweep.json": {"task": "np-sweep", "family": binary_family(rng, k),
                          "params": {"variant": "plain",
                                     "n_list": [512, 1024, 2048, 4096]}},
        "ldp.json": {"task": "ldp", "params": {
            "prob": _jitter(rng, k, 0.5, 0.05), "x_grid": [0.6, 0.7, 0.8, 0.9],
            "n_list": [256, 512, 1024, 2048, 4096]}},
    }


def _merge(*builders):
    """One draw's scenario files of several generators, in one directory."""
    def build(k):
        files = {}
        for builder in builders:
            files.update(builder(k))
        return files
    return build


GENERATORS = {
    "markov-sc-report": _sc_report(
        markov_family, [0.05, 0.2, 0.4, 0.8], {"n_list": [128, 256, 512, 1024]}),
    "quasifree-sc-report": _sc_report(
        quasifree_family, [0.2, 0.5], {"n_list": [6, 7, 8, 9, 10]}),
    "pinched-and-short-jobs": _merge(
        _sc_report(qubit_family, [0.1, 0.2, 0.25, 0.3],
                   {"mode": "pinched", "variant": "sandwiched",
                    "n_list": list(range(6, 13))}),
        _short_jobs),
}


def probe_scenarios():
    """Seed-0 families at the inputs where the CLI is known to refuse."""
    rng = np.random.default_rng(0)
    zzx = {"site_dim": 2, "beta": 0.5,
           "terms": [_op(0.6 * np.array([[0, 1], [1, 0]])),
                     _op(np.diag([1.0, -1.0, -1.0, 1.0]))]}
    onsite = {"site_dim": 2, "beta": 0.5, "terms": [_op(np.diag([0.0, 1.0]))]}
    return {
        "qubit_r0.4.json": {"task": "sc-report", "family": qubit_family(rng, 0),
                            "params": {"mode": "pinched", "variant": "sandwiched",
                                       "r_grid": [0.4], "n_list": list(range(6, 13))}},
        "quasifree_r0.9.json": {"task": "sc-report", "family": quasifree_family(rng, 0),
                                "params": {"r_grid": [0.9], "n_list": [6, 7, 8, 9, 10]}},
        "gibbs_zzx_onsite.json": {"task": "hoeffding", "family": {
            "kind": "gibbs", "scaling_exponent": 1,
            "payload": {"null": zzx, "alt": onsite}}, "params": {"r_grid": [0.2]}},
    }


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def capture(workload, k, src):
    case = os.path.join(CATALOG, workload, f"s{k:02d}")
    shutil.rmtree(case, ignore_errors=True)
    os.makedirs(case)
    for name, scenario in GENERATORS[workload](k).items():
        _write_json(os.path.join(case, name), scenario)
    ref = os.path.join(case, "ref")
    env = dict(os.environ, PYTHONPATH=src, **CHILD_ENV)
    for job in WORKLOADS[workload]["jobs"]:
        argv = [sys.executable, "-m", "sconv"] + job_argv(job, case, ref)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} s{k:02d} {job[0]} exited "
                             f"{proc.returncode}: {proc.stderr.strip()}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    os.makedirs(PROBE_DIR, exist_ok=True)
    for name, scenario in probe_scenarios().items():
        _write_json(os.path.join(PROBE_DIR, name), scenario)
    for workload in args.workload or sorted(WORKLOADS):
        for k in range(CASES):
            capture(workload, k, src)
            print(f"{workload} s{k:02d} captured", flush=True)


if __name__ == "__main__":
    main()
