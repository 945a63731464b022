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
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import families as fam
from . import hyptest as ht
from . import ldp as ldp_mod
from . import renyi
from .hoeffding import hoeffding_anti
from .operators import DEFAULT_DIM_CAP
from .verify import run_all_checks

FLOAT_FMT = "%.11e"
TASKS = ("renyi", "hoeffding", "family", "np-sweep", "sc-report", "ldp", "verify")

__all__ = ["main", "load_scenario", "emit_convergence_table", "parse_convergence_table"]


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


def _parse_cell(s):
    return None if s == "" else float(s)


def _open_csv(path):
    f = open(path, "w", encoding="utf-8", newline="")
    return f, csv.writer(f, lineterminator="\n")


# -- scenario loading ------------------------------------------------------


def _require(d, field, typ, path):
    if field not in d:
        raise ScenarioError(f"{path}.{field}", "missing required field")
    v = d[field]
    if typ is float and isinstance(v, int):
        v = float(v)
    if not isinstance(v, typ):
        raise ScenarioError(
            f"{path}.{field}", f"expected {getattr(typ, '__name__', typ)}"
        )
    return v


def _check_n_list(ns, path):
    if not isinstance(ns, list) or not ns:
        raise ScenarioError(path, "n_list must be a nonempty list")
    if any(type(n) is not int or n < 1 for n in ns):  # JSON true parses as int
        raise ScenarioError(path, "n_list entries must be positive integers")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ScenarioError(path, "n_list must be strictly increasing")
    return ns


def _check_grid(g, path):
    if not isinstance(g, list) or not g:
        raise ScenarioError(path, "grid must be a nonempty list of numbers")
    try:
        vals = [float(v) for v in g]
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(path, "grid entries must be numbers") from None
    if not all(map(math.isfinite, vals)):  # JSON NaN and Infinity parse as floats
        raise ScenarioError(path, "grid entries must be finite numbers")
    return vals


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
    task = _require(raw, "task", str, "$")
    if task not in TASKS:
        raise ScenarioError("$.task", f"unknown task {task!r}; expected one of {TASKS}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("$.params", "params must be an object")
    scenario = {"task": task, "params": params}
    needs_family = task in ("renyi", "hoeffding", "family", "np-sweep", "sc-report")
    if needs_family:
        fdict = _require(raw, "family", dict, "$")
        try:
            scenario["family"] = fam.family_from_json(fdict)
        except (KeyError, TypeError) as exc:
            raise ScenarioError("$.family", f"missing or malformed field: {exc}") from exc
        except ValueError as exc:
            raise ScenarioError("$.family", str(exc)) from exc
    if "n_list" in params:
        _check_n_list(params["n_list"], "$.params.n_list")
    for grid_name in ("alpha_grid", "a_grid", "r_grid", "x_grid"):
        if grid_name in params:
            _check_grid(params[grid_name], f"$.params.{grid_name}")
    if "t_range" in params:
        tr = params["t_range"]
        try:
            ok = (isinstance(tr, list) and len(tr) == 2
                  and all(type(v) in (int, float) and math.isfinite(v) for v in tr)
                  and tr[0] < tr[1])
        except OverflowError:  # an integer beyond the double range
            ok = False
        if not ok:
            raise ScenarioError("$.params.t_range",
                                "t_range must be finite [lo, hi] with lo < hi")
    if "out" in params and not isinstance(params["out"], str):
        raise ScenarioError("$.params.out", "out must be a file name string")
    if "mode" in params and params["mode"] not in ("np", "pinched"):
        raise ScenarioError("$.params.mode", "mode must be 'np' or 'pinched'")
    if "variant" in params and params["variant"] not in renyi.VARIANTS:
        raise ScenarioError("$.params.variant", f"variant must be one of {renyi.VARIANTS}")
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
    key = report.r if report.r is not None else report.a
    f, w = _open_csv(path)
    with f:
        w.writerow(CONVERGENCE_COLUMNS)
        s = float(report.family.scaling_exponent)
        for ep in report.per_n:
            w.writerow(
                [
                    str(ep.n),
                    _fmt(key),
                    _fmt(ep.alpha_err),
                    _fmt(ep.beta_err),
                    _fmt(ep.success),
                    _fmt(ep.log_success / float(ep.n) ** s),
                    _fmt(report.predicted_success_rate),
                    _fmt(report.predicted_H),
                    report.provenance,
                ]
            )
        w.writerow(
            [
                "fit",
                _fmt(key),
                _fmt(report.success_fit.r_squared),
                _fmt(report.beta_fit.rate),
                _fmt(report.success_fit.rate),
                _fmt(report.beta_fit.r_squared),
                _fmt(report.predicted_success_rate),
                _fmt(report.predicted_H),
                report.provenance,
            ]
        )
    return path


def parse_convergence_table(path):
    """Read back an emitted table into plain dicts (per-n rows + footer)."""
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or tuple(rows[0]) != CONVERGENCE_COLUMNS:
        raise ValueError(f"{path} is not a convergence table")
    per_n, footer = [], None
    for row in rows[1:]:
        rec = dict(zip(CONVERGENCE_COLUMNS, row))
        if rec["n"] == "fit":
            footer = {
                "a_or_r": _parse_cell(rec["a_or_r"]),
                "success_r_squared": _parse_cell(rec["alpha_err"]),
                "fitted_beta_rate": _parse_cell(rec["beta_err"]),
                "fitted_success_rate": _parse_cell(rec["success"]),
                "beta_r_squared": _parse_cell(rec["log_success_over_n"]),
                "predicted_phi": _parse_cell(rec["predicted_phi"]),
                "predicted_H": _parse_cell(rec["predicted_H"]),
                "provenance": rec["provenance"],
            }
        else:
            per_n.append(
                {
                    "n": int(rec["n"]),
                    "a_or_r": _parse_cell(rec["a_or_r"]),
                    "alpha_err": _parse_cell(rec["alpha_err"]),
                    "beta_err": _parse_cell(rec["beta_err"]),
                    "success": _parse_cell(rec["success"]),
                    "log_success_over_n": _parse_cell(rec["log_success_over_n"]),
                    "predicted_phi": _parse_cell(rec["predicted_phi"]),
                    "predicted_H": _parse_cell(rec["predicted_H"]),
                    "provenance": rec["provenance"],
                }
            )
    return {"per_n": per_n, "footer": footer}


# -- invariant checks on emitted reports -----------------------------------


def _report_invariant_failures(report):
    """Runtime invariants every report must satisfy; failures end the run."""
    problems = []
    for ep in report.per_n:
        if ep.log_pos_part is not None and ep.log_success < ep.log_pos_part - 1e-12:
            problems.append(
                f"n={ep.n}: success {ep.log_success} below its positive-part "
                f"floor {ep.log_pos_part}"
            )
        if abs(ep.alpha_err + ep.success - 1.0) > 1e-10:
            problems.append(f"n={ep.n}: alpha_err + success != 1")
    return problems


# -- task runners ----------------------------------------------------------


def _run_renyi(scenario, out_dir, dim_cap, threads):
    params = scenario["params"]
    spec = scenario["family"]
    alphas = _check_grid(
        params.get("alpha_grid", [0.5, 0.75, 1.0, 1.5, 2.0, 3.0]), "$.params.alpha_grid"
    )
    n = int(params.get("n", 1))
    pair = fam.family_states(spec, n, dim_cap=dim_cap)
    path = os.path.join(out_dir, params.get("out", "renyi.csv"))
    f, w = _open_csv(path)
    with f:
        w.writerow(["alpha", "variant", "psi", "divergence", "provenance"])
        for alpha in alphas:
            for variant in renyi.VARIANTS:
                psi = renyi.psi(pair.rho, pair.sigma, alpha, variant=variant)
                div = renyi.renyi_divergence(pair.rho, pair.sigma, alpha, variant=variant)
                w.writerow(
                    [_fmt(alpha), variant, _fmt(psi), _fmt(div), "eigen-overlap"]
                )
    return [path], 0


def _run_hoeffding(scenario, out_dir, dim_cap, threads):
    params = scenario["params"]
    spec = scenario["family"]
    variant = params.get("variant", "sandwiched")
    rate = fam.asymptotic_rate(spec, variant=variant, dim_cap=dim_cap)
    rs = _check_grid(params.get("r_grid", [0.05, 0.1, 0.2, 0.4]), "$.params.r_grid")
    path = os.path.join(out_dir, params.get("out", "hoeffding.csv"))
    f, w = _open_csv(path)
    with f:
        w.writerow(
            ["r", "value", "regime", "a_r", "attaining_t", "tail_dominated", "provenance"]
        )
        for r in rs:
            h = hoeffding_anti(rate, r)
            w.writerow(
                [
                    _fmt(r),
                    _fmt(h.value),
                    h.regime,
                    _fmt(h.a_r),
                    _fmt(h.attaining_t),
                    str(bool(h.tail_dominated)).lower(),
                    f"anti-divergence[{spec.kind}/{variant}]",
                ]
            )
    return [path], 0


def _run_family(scenario, out_dir, dim_cap, threads):
    params = scenario["params"]
    spec = scenario["family"]
    variant = params.get("variant", "sandwiched")
    ns = _check_n_list(params.get("n_list", [2, 3, 4]), "$.params.n_list")
    alphas = _check_grid(params.get("alpha_grid", [1.5, 2.0]), "$.params.alpha_grid")
    rate = fam.asymptotic_rate(spec, variant=variant, dim_cap=dim_cap)
    path = os.path.join(out_dir, params.get("out", "family.csv"))
    f, w = _open_csv(path)
    with f:
        w.writerow(
            ["n", "alpha", "variant", "psi_n", "psi_over_scale", "limit", "residual",
             "provenance"]
        )
        for n in ns:
            pair = fam.family_states(spec, n, dim_cap=dim_cap)
            scale = float(n) ** float(spec.scaling_exponent)
            for alpha in alphas:
                psi_n = renyi.psi(pair.rho, pair.sigma, alpha, variant=variant)
                lim = rate(alpha) if 1.0 <= alpha <= rate.t_hi else None
                resid = None if lim is None else psi_n / scale - lim
                w.writerow(
                    [
                        str(n),
                        _fmt(alpha),
                        variant,
                        _fmt(psi_n),
                        _fmt(psi_n / scale),
                        _fmt(lim),
                        _fmt(resid),
                        f"family[{spec.kind}]",
                    ]
                )
    return [path], 0


def _sweep_common(scenario, out_dir, dim_cap, threads, task):
    params = scenario["params"]
    spec = scenario["family"]
    mode = params.get("mode", "np")
    variant = params.get("variant", "sandwiched")
    ns = _check_n_list(
        params.get("n_list", [64, 128, 256, 512, 1024]), "$.params.n_list"
    )
    rate = fam.asymptotic_rate(spec, variant=variant, dim_cap=dim_cap)
    if task == "np-sweep":
        if "a_grid" in params:
            grid = _check_grid(params["a_grid"], "$.params.a_grid")
        else:
            grid = [float(v) for v in ht.default_a_grid(rate)]

        def job(value):
            return ht.exponent_sweep(spec, value, ns, mode=mode, rate=rate,
                                     dim_cap=dim_cap, variant=variant)

        stem = "np_sweep"
    else:
        grid = _check_grid(params.get("r_grid", [0.1]), "$.params.r_grid")

        def job(value):
            return ht.sc_report(spec, value, ns, mode=mode, rate=rate,
                                dim_cap=dim_cap, variant=variant)

        stem = "sc_report"
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        reports = list(pool.map(job, grid))
    paths, failures = [], []
    for idx, report in enumerate(reports):
        name = params.get("out", f"{stem}.csv")
        if len(grid) > 1:
            base, ext = os.path.splitext(name)
            name = f"{base}_{idx:02d}{ext}"
        path = os.path.join(out_dir, name)
        emit_convergence_table(report, path)
        paths.append(path)
        failures.extend(_report_invariant_failures(report))
    if failures:
        _emit_error_json("$.run", "; ".join(failures))
        return paths, 1
    return paths, 0


def _run_ldp(scenario, out_dir, dim_cap, threads):
    params = scenario["params"]
    ns = _check_n_list(
        params.get("n_list", [256, 512, 1024, 2048, 4096]), "$.params.n_list"
    )
    prob = float(params.get("prob", 0.5))
    xs = _check_grid(params.get("x_grid", [0.7]), "$.params.x_grid")
    window_hi = float(params.get("window_hi", 1.0))
    t_range = params.get("t_range", [-1.0, 4.0])
    seq = ldp_mod.binomial_sequence(ns, prob)
    path = os.path.join(out_dir, params.get("out", "ldp.csv"))
    f, w = _open_csv(path)
    with f:
        w.writerow(
            ["n", "x", "exact_tail_rate", "chernoff_bound", "ge_lower", "margin",
             "provenance"]
        )
        for x in xs:
            bound = ldp_mod.chernoff_upper(seq, x, np.linspace(0, t_range[1], 513))
            verdict = ldp_mod.gartner_ellis_lower_check(
                seq, x, (x, window_hi), tuple(t_range)
            )
            margins = dict(verdict.margins)
            for n in ns:
                w.writerow(
                    [
                        str(n),
                        _fmt(x),
                        _fmt(ldp_mod.exact_tail_rate(seq, n, x)),
                        _fmt(bound),
                        _fmt(-verdict.legendre_value),
                        _fmt(margins[n]),
                        f"binomial[p={prob:g}]",
                    ]
                )
    return [path], 0


def _run_verify(scenario, out_dir, dim_cap, threads):
    seed = int(os.environ.get("SCONV_SEED", "42"))
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
    "np-sweep": lambda s, o, d, t: _sweep_common(s, o, d, t, "np-sweep"),
    "sc-report": lambda s, o, d, t: _sweep_common(s, o, d, t, "sc-report"),
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
                   help="worker pool size for grid sweeps")
    p.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP,
                   help="largest dense matrix dimension to materialize")


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
        os.makedirs(args.out, exist_ok=True)
        paths, status = RUNNERS[args.task](
            scenario, args.out, args.dim_cap, args.threads
        )
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
