"""Batch command line: scenario loading, sweeps, CSV/JSON emission, verify.

One binary, one subcommand per task.  Scenarios are JSON files; outputs are
deterministic (fixed column orders, sorted JSON keys, 12 significant digits,
RFC-4180 CSV with UTF-8 and LF endings).  Validation failures exit with code
2 and a machine-readable error JSON on stderr naming the offending field;
invariant failures during a run exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import families as fam
from . import hyptest as ht
from . import ldp as ldp_mod
from . import renyi
from .hoeffding import hoeffding_anti
from .operators import finite_json_numbers
from .verify import run_all_checks

FLOAT_FMT = "%.11e"
# every parameter each task takes, with its default; a None default (np-sweep's
# a_grid: the thresholds of ``hyptest.default_a_grid``) is left to the runner
PARAMS = {
    "renyi": {"n": 1, "alpha_grid": [0.5, 0.75, 1.0, 1.5, 2.0, 3.0], "out": "renyi.csv"},
    "hoeffding": {"variant": "sandwiched", "r_grid": [0.05, 0.1, 0.2, 0.4],
                  "out": "hoeffding.csv"},
    "family": {"variant": "sandwiched", "n_list": [2, 3, 4], "alpha_grid": [1.5, 2.0],
               "out": "family.csv"},
    "np-sweep": {"n_list": [64, 128, 256, 512, 1024], "mode": "np", "variant": "sandwiched",
                 "a_grid": None, "out": "np_sweep.csv"},
    "sc-report": {"n_list": [64, 128, 256, 512, 1024], "mode": "np", "variant": "sandwiched",
                  "r_grid": [0.1], "out": "sc_report.csv"},
    "ldp": {"n_list": [256, 512, 1024, 2048, 4096], "prob": 0.5, "x_grid": [0.7],
            "window_hi": 1.0, "t_range": [-1.0, 4.0], "out": "ldp.csv"},
    "verify": {},
}
TASKS = tuple(PARAMS)
# the fewest sizes a task's n_list may hold: two for the fit of the error decay
# rates, three for the convergence gate of the large-deviation lower bound
MIN_SIZES = {"np-sweep": 2, "sc-report": 2, "ldp": 3}

__all__ = ["main", "load_scenario", "emit_convergence_table"]


class ScenarioError(Exception):
    """Validation failure tied to a specific scenario field."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field
        self.message = message


def _fmt(x):
    """Fixed-width float formatting; empty cell for missing values."""
    if x is None or x == "":
        return ""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return FLOAT_FMT % x


def _write_csv(path, header, rows):
    """Write ``header`` and then ``rows`` as RFC-4180 CSV (UTF-8, LF endings)."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return path


# -- scenario loading ------------------------------------------------------


def _require(d, field, typ, path):
    if field not in d:
        raise ScenarioError(f"{path}.{field}", "missing required field")
    v = d[field]
    if not isinstance(v, typ):
        raise ScenarioError(f"{path}.{field}", f"expected {typ.__name__}")
    return v


def _positive_int(v):
    return type(v) is int and v >= 1  # JSON true parses as int


def _check_n_list(ns, path, task):
    if not isinstance(ns, list) or not ns:
        raise ScenarioError(path, "n_list must be a nonempty list")
    if not all(map(_positive_int, ns)):
        raise ScenarioError(path, "n_list entries must be positive integers")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ScenarioError(path, "n_list must be strictly increasing")
    if len(ns) < MIN_SIZES.get(task, 1):
        raise ScenarioError(path, f"{task} needs at least {MIN_SIZES[task]} sizes in n_list")
    return ns


def _check_grid(g, path):
    if not isinstance(g, list) or not g:
        raise ScenarioError(path, "grid must be a nonempty list of numbers")
    if not finite_json_numbers(g):
        raise ScenarioError(path, "grid entries must be finite numbers")
    return [float(v) for v in g]


def _check_param(task, name, v):
    """Check one of ``task``'s parameters, given or defaulted, and return it typed."""
    path = f"$.params.{name}"
    if name == "n_list":
        return _check_n_list(v, path, task)
    if name.endswith("_grid"):
        grid = _check_grid(v, path)
        if name == "r_grid" and min(grid) < 0:
            raise ScenarioError(path, "r_grid entries must be nonnegative tradeoff rates")
        return grid
    if name == "n" and not _positive_int(v):
        raise ScenarioError(path, "n must be a positive integer")
    if name in ("prob", "window_hi"):
        if not finite_json_numbers([v]):
            raise ScenarioError(path, f"{name} must be a finite number")
        if name == "prob" and not 0 < v < 1:
            raise ScenarioError(path, "prob must lie in (0, 1)")
        return float(v)
    if name == "t_range":
        if not (isinstance(v, list) and len(v) == 2 and finite_json_numbers(v)
                and v[0] < v[1]):
            raise ScenarioError(path, "t_range must be finite [lo, hi] with lo < hi")
        if v[1] <= 0:  # hi also ends the Chernoff grid [0, hi]
            raise ScenarioError(path, "t_range must end above 0")
        return tuple(map(float, v))
    if name == "out" and not (isinstance(v, str) and v not in ("", ".", "..")
                              and not os.path.dirname(v)):
        raise ScenarioError(path, "out must be a bare file name, written inside --out")
    if name == "mode" and v not in ("np", "pinched"):
        raise ScenarioError(path, "mode must be 'np' or 'pinched'")
    if name == "variant" and v not in renyi.VARIANTS:
        raise ScenarioError(path, f"variant must be one of {renyi.VARIANTS}")
    return v


def load_scenario(path):
    """Parse and validate a scenario file into a plain dict."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ScenarioError("$", f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError("$", f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("$", "scenario must be a JSON object")
    unknown = sorted(set(raw) - {"task", "family", "params"})
    if unknown:
        raise ScenarioError(f"$.{unknown[0]}", f"a scenario takes no {unknown[0]!r}; "
                            "it takes ('task', 'family', 'params')")
    task = _require(raw, "task", str, "$")
    if task not in TASKS:
        raise ScenarioError("$.task", f"unknown task {task!r}; expected one of {TASKS}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("$.params", "params must be an object")
    scenario = {"task": task}
    if task in ("renyi", "hoeffding", "family", "np-sweep", "sc-report"):
        fdict = _require(raw, "family", dict, "$")
        if not _positive_int(fdict.get("scaling_exponent", 1)):
            raise ScenarioError("$.family.scaling_exponent",
                                "scaling_exponent must be a positive integer")
        try:
            scenario["family"] = fam.family_from_json(fdict)
        except (KeyError, TypeError) as exc:
            raise ScenarioError("$.family", f"missing or malformed field: {exc}") from exc
        except ValueError as exc:
            raise ScenarioError("$.family", str(exc)) from exc
    unknown = sorted(set(params) - set(PARAMS[task]))
    if unknown:
        raise ScenarioError(f"$.params.{unknown[0]}",
                            f"{task} takes no {unknown[0]!r}; it takes {tuple(PARAMS[task])}")
    scenario["params"] = {name: _check_param(task, name, v)
                          if name in params or v is not None else v
                          for name, v in {**PARAMS[task], **params}.items()}
    checked = scenario["params"]  # renyi writes both variants; family, the one it names
    if "alpha_grid" in checked and min(checked["alpha_grid"]) <= 0 and (
            task == "renyi" or checked["variant"] == "sandwiched"):
        raise ScenarioError("$.params.alpha_grid", "sandwiched orders need alpha > 0")
    if "family" in raw and "family" not in scenario:  # after the params: theirs are named first
        raise ScenarioError("$.family", f"{task} takes no 'family'")
    return scenario


# -- convergence tables ----------------------------------------------------

CONVERGENCE_COLUMNS = (
    "n",
    "a_or_r",
    "alpha_err",
    "beta_err",
    "success",
    "log_success_over_n",
    "predicted_phi",
    "predicted_H",
    "provenance",
)


def emit_convergence_table(report, path):
    """Write an exponent report as CSV: per-n rows plus one ``fit`` footer.

    Footer semantics (single row, same columns): ``n`` is the literal
    ``fit``; ``alpha_err`` carries the success-fit R^2, ``beta_err`` the
    fitted type-II decay rate, ``success`` the fitted success decay rate, and
    ``log_success_over_n`` the beta-fit R^2.  Predictions repeat verbatim.
    """
    key = _fmt(report.r if report.r is not None else report.a)
    s = float(report.family.scaling_exponent)
    predictions = [_fmt(report.predicted_success_rate), _fmt(report.predicted_H),
                   report.provenance]
    rows = [
        [str(ep.n), key, _fmt(ep.alpha_err), _fmt(ep.beta_err), _fmt(ep.success),
         _fmt(ep.log_success / float(ep.n) ** s), *predictions]
        for ep in report.per_n
    ]
    rows.append(["fit", key, _fmt(report.success_fit.r_squared), _fmt(report.beta_fit.rate),
                 _fmt(report.success_fit.rate), _fmt(report.beta_fit.r_squared),
                 *predictions])
    return _write_csv(path, CONVERGENCE_COLUMNS, rows)


# -- invariant checks on emitted reports -----------------------------------


def _report_invariant_failures(report):
    """Per-n pairs whose success falls below its positive-part floor; failures
    end the run.  (``ErrorPair`` itself enforces ``alpha_err + success = 1``.)"""
    return [
        f"n={ep.n}: success {ep.log_success} below its positive-part floor {ep.log_pos_part}"
        for ep in report.per_n
        if ep.log_pos_part is not None and ep.log_success < ep.log_pos_part - 1e-12
    ]


# -- task runners ----------------------------------------------------------


def _family_rate(family, variant):
    """The family's asymptotic rate; a refusal to build it is the family's."""
    try:
        return fam.asymptotic_rate(family, variant=variant)
    except ValueError as exc:
        raise ScenarioError("$.family", str(exc)) from exc


def _run_renyi(scenario, out_dir, threads):
    params = scenario["params"]
    pair = fam.family_states(scenario["family"], params["n"])
    curves = {v: renyi.psi_curve(pair.rho, pair.sigma, v) for v in renyi.VARIANTS}
    rows = [
        [_fmt(alpha), variant, _fmt(curves[variant](alpha)),
         _fmt(renyi.renyi_divergence(pair.rho, pair.sigma, alpha, variant=variant)),
         "eigen-overlap"]
        for alpha in params["alpha_grid"]
        for variant in renyi.VARIANTS
    ]
    path = os.path.join(out_dir, params["out"])
    return [_write_csv(path, ["alpha", "variant", "psi", "divergence", "provenance"], rows)], 0


def _run_hoeffding(scenario, out_dir, threads):
    params = scenario["params"]
    family = scenario["family"]
    variant = params["variant"]
    rate = _family_rate(family, variant)
    rows = []
    for r in params["r_grid"]:
        h = hoeffding_anti(rate, r)
        rows.append([_fmt(r), _fmt(h.value), h.regime, _fmt(h.a_r), _fmt(h.attaining_t),
                     str(bool(h.tail_dominated)).lower(),
                     f"anti-divergence[{family.kind}/{variant}]"])
    path = os.path.join(out_dir, params["out"])
    header = ["r", "value", "regime", "a_r", "attaining_t", "tail_dominated", "provenance"]
    return [_write_csv(path, header, rows)], 0


def _run_family(scenario, out_dir, threads):
    params = scenario["params"]
    family = scenario["family"]
    variant = params["variant"]
    psis = {}  # largest block first, so an over-cap block is refused before any other
    for n in sorted(params["n_list"], reverse=True):
        pair = fam.family_states(family, n)
        psis[n] = list(map(renyi.psi_curve(pair.rho, pair.sigma, variant), params["alpha_grid"]))
    rate = _family_rate(family, variant)
    rows = []
    for n in params["n_list"]:
        scale = float(n) ** float(family.scaling_exponent)
        for alpha, psi_n in zip(params["alpha_grid"], psis[n]):
            lim = rate(alpha) if 1.0 <= alpha <= rate.t_hi else None
            resid = None if lim is None else psi_n / scale - lim
            rows.append([str(n), _fmt(alpha), variant, _fmt(psi_n), _fmt(psi_n / scale),
                         _fmt(lim), _fmt(resid), f"family[{family.kind}]"])
    path = os.path.join(out_dir, params["out"])
    header = ["n", "alpha", "variant", "psi_n", "psi_over_scale", "limit", "residual",
              "provenance"]
    return [_write_csv(path, header, rows)], 0


def _emit_reports(run, grid_name, scenario, out_dir, threads):
    """Run ``run`` (``hyptest.exponent_sweep`` or ``hyptest.sc_report``) once on
    the scenario's whole ``grid_name``, with ``threads`` workers sharing the
    block sizes; write one convergence table per value (suffixed ``_00``,
    ``_01``, ... when there are several), and check every report's invariants."""
    params = scenario["params"]
    rate = _family_rate(scenario["family"], params["variant"])
    grid = params[grid_name]
    if grid is None:
        grid = [float(v) for v in ht.default_a_grid(rate)]
    reports = run(scenario["family"], grid, params["n_list"], mode=params["mode"], rate=rate,
                  threads=threads)
    base, ext = os.path.splitext(params["out"])
    paths, failures = [], []
    for idx, report in enumerate(reports):
        name = f"{base}_{idx:02d}{ext}" if len(grid) > 1 else base + ext
        paths.append(emit_convergence_table(report, os.path.join(out_dir, name)))
        failures.extend(_report_invariant_failures(report))
    if failures:
        _emit_error_json("$.run", "; ".join(failures))
        return paths, 1
    return paths, 0


def _run_ldp(scenario, out_dir, threads):
    params = scenario["params"]
    ns, prob, t_range = params["n_list"], params["prob"], params["t_range"]
    seq = ldp_mod.binomial_sequence(ns, prob)
    upper = ldp_mod.build_rate_curve(seq, np.linspace(0, t_range[1], 513))
    curve = ldp_mod.build_rate_curve(seq, np.linspace(*t_range, 201))
    rows = []
    for x in params["x_grid"]:
        bound = ldp_mod.chernoff_upper(upper, x)
        verdict = ldp_mod.gartner_ellis_lower_check(curve, x, (x, params["window_hi"]))
        margins = dict(verdict.margins)
        rows.extend(
            [str(n), _fmt(x), _fmt(ldp_mod.exact_tail_rate(seq, n, x)), _fmt(bound),
             _fmt(-verdict.legendre_value), _fmt(margins[n]), f"binomial[p={prob:g}]"]
            for n in ns
        )
    path = os.path.join(out_dir, params["out"])
    header = ["n", "x", "exact_tail_rate", "chernoff_bound", "ge_lower", "margin",
              "provenance"]
    return [_write_csv(path, header, rows)], 0


def _run_verify(scenario, out_dir, threads):
    raw = os.environ.get("SCONV_SEED", "42")
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ScenarioError("SCONV_SEED", f"SCONV_SEED must be a non-negative integer, not {raw!r}")
    results = run_all_checks(seed=seed)
    passed = sum(1 for r in results if r.ok)
    failed = len(results) - passed
    summary = {
        "seed": seed,
        "passed": passed,
        "failed": failed,
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }
    path = os.path.join(out_dir, "verify_summary.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
    print(f"{passed} passed, {failed} failed")
    return [path], 0 if failed == 0 else 1


RUNNERS = {
    "renyi": _run_renyi,
    "hoeffding": _run_hoeffding,
    "family": _run_family,
    # look each hyptest function up per call, so that a rebinding of it takes effect
    "np-sweep": lambda *args: _emit_reports(ht.exponent_sweep, "a_grid", *args),
    "sc-report": lambda *args: _emit_reports(ht.sc_report, "r_grid", *args),
    "ldp": _run_ldp,
    "verify": _run_verify,
}


# -- entry point -----------------------------------------------------------


def _emit_error_json(field, message):
    print(json.dumps({"error": message, "field": field}, sort_keys=True),
          file=sys.stderr)


def _add_common(p, scenario_required):
    p.add_argument("--scenario", required=scenario_required,
                   help="path to the scenario JSON file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--threads", type=int, default=1,
                   help="workers that split the block sizes of a sweep, largest first")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sconv",
        description=(
            "Renyi divergences, Hoeffding anti-divergences, and finite-size "
            "strong-converse exponents for i.i.d. and correlated state families"
        ),
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        sp = sub.add_parser(task)
        _add_common(sp, scenario_required=(task != "verify"))
    args = parser.parse_args(argv)
    if args.threads < 1:
        sub.choices[args.task].error("argument --threads: must be at least 1")
    try:
        if args.scenario is not None:
            scenario = load_scenario(args.scenario)
            if scenario["task"] != args.task:
                raise ScenarioError(
                    "$.task",
                    f"scenario declares task {scenario['task']!r} but the "
                    f"{args.task!r} subcommand was invoked",
                )
        else:
            scenario = {"task": args.task, "params": {}}
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ScenarioError("--out", f"cannot create output directory: {exc}") from exc
        paths, status = RUNNERS[args.task](scenario, args.out, args.threads)
    except ScenarioError as exc:
        _emit_error_json(exc.field, exc.message)
        return 2
    except ValueError as exc:
        _emit_error_json("$.params", str(exc))
        return 2
    for p in paths:
        print(p)
    return status


if __name__ == "__main__":
    sys.exit(main())
