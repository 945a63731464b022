"""Unit tests for the batch command line: scenario validation, table emission,
exit codes, and byte-stable CSV output."""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from sconv import families as fam
from sconv import hyptest as ht
from sconv import ldp
from sconv.cli import (
    CONVERGENCE_COLUMNS,
    PARAMS,
    TASKS,
    ScenarioError,
    emit_convergence_table,
    load_scenario,
    main,
)
from sconv.families import PAULI_X, PAULI_Z
from sconv.operators import HermitianOperator, operator_to_json, rand_density
from sconv.quasifree import QuasiFreePayload, quasifree_block_symbol, singleparticle_psi
from sconv.renyi import psi

from helpers import family_to_json, parse_convergence_table

ROOT = Path(__file__).resolve().parents[1]
CATALOG = ROOT / "perfbench" / "catalog"
SHORT_JOBS_CASE = CATALOG / "pinched-and-short-jobs" / "s00"
FLOAT_CELL = re.compile(r"^(-?\d\.\d{11}e[+-]\d{2,3}|inf|-inf|nan|)$")


def binary_family(p=0.78, q=0.5):
    return {
        "kind": "iid",
        "scaling_exponent": 1,
        "payload": {
            "rho": {"dim": 2, "re": [p, 0.0, 0.0, 1.0 - p], "im": None},
            "sigma": {"dim": 2, "re": [q, 0.0, 0.0, 1.0 - q], "im": None},
        },
    }


def markov_family():
    """The two-state chain pair of acceptance test 11."""
    return {
        "kind": "markov",
        "scaling_exponent": 1,
        "payload": {
            "pi0": [0.6, 0.4], "pi1": [0.5, 0.5],
            "P0": [[0.7, 0.3], [0.4, 0.6]], "P1": [[0.5, 0.5], [0.55, 0.45]],
        },
    }


def quasifree_family():
    """The quasi-free symbol pair of the benchmark's draw 0."""
    return {
        "kind": "quasifree",
        "scaling_exponent": 1,
        "payload": {
            "nu": 1,
            "q_symbol": {"constant": 0.5, "cos_coeffs": [0.2], "sin_coeffs": []},
            "r_symbol": {"constant": 0.45, "cos_coeffs": [-0.1], "sin_coeffs": [0.05]},
            "c_bound": 0.2,
        },
    }


def qubit_family(seed=7):
    """A non-commuting i.i.d. qubit pair."""
    rng = np.random.default_rng(seed)
    return {"kind": "iid", "payload": {"rho": operator_to_json(rand_density(2, rng)),
                                       "sigma": operator_to_json(rand_density(2, rng))}}


def onsite_gibbs_family():
    """A Gibbs pair of two on-site interactions: every block is a tensor power."""
    null = fam.GibbsPayload(2, [HermitianOperator(np.diag([0.0, 1.0]))], 0.7)
    alt = fam.GibbsPayload(2, [HermitianOperator(0.6 * PAULI_X + 0.3 * PAULI_Z)], 0.5)
    return family_to_json(fam.GibbsPairPayload(null, alt))


# psi_n of each family kind by a route that builds no dense block state
FAMILY_PSI_REFERENCES = {
    "iid": lambda p, n, alpha, variant: n * psi(p.rho1, p.sigma1, alpha, variant),
    # classical states: both variants are the transfer-matrix path sum
    "markov": lambda p, n, alpha, variant: fam.markov_psi_n(p, alpha, n),
    "quasifree": lambda p, n, alpha, variant: singleparticle_psi(
        *quasifree_block_symbol(p, n), alpha, variant),
    # on-site interactions: block n is the n-th tensor power of block 1
    "gibbs": lambda p, n, alpha, variant: n * psi(
        fam.gibbs_state(p.null, 1), fam.gibbs_state(p.alt, 1), alpha, variant),
}


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def expect_error(tmp_path, obj, field):
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_scenario(tmp_path, obj))
    assert err.value.field == field
    return err.value


class TestLoadScenario:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(tmp_path / "absent.json"))
        assert err.value.field == "$"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        assert err.value.field == "$"
        assert "malformed" in err.value.message

    def test_top_level_must_be_object(self, tmp_path):
        expect_error(tmp_path, [1, 2, 3], "$")

    def test_missing_task(self, tmp_path):
        expect_error(tmp_path, {"family": binary_family()}, "$.task")

    def test_unknown_task(self, tmp_path):
        err = expect_error(tmp_path, {"task": "frobnicate"}, "$.task")
        assert "frobnicate" in err.message

    def test_params_must_be_object(self, tmp_path):
        expect_error(
            tmp_path,
            {"task": "renyi", "family": binary_family(), "params": [1]},
            "$.params",
        )

    def test_missing_family(self, tmp_path):
        expect_error(tmp_path, {"task": "renyi"}, "$.family")

    def test_malformed_family(self, tmp_path):
        obj = {"task": "renyi", "family": {"kind": "iid", "payload": {}}}
        expect_error(tmp_path, obj, "$.family")

    @pytest.mark.parametrize("n_list", [[64, 32], [True, 2]], ids=["decreasing", "bool"])
    def test_bad_n_list(self, tmp_path, n_list):
        obj = {
            "task": "np-sweep",
            "family": binary_family(),
            "params": {"n_list": n_list},
        }
        expect_error(tmp_path, obj, "$.params.n_list")

    @pytest.mark.parametrize("task, grid, entries", [
        ("renyi", "alpha_grid", [0.5, "two"]),
        ("renyi", "alpha_grid", [math.nan]),
        ("sc-report", "r_grid", [0.1, math.inf]),
        ("renyi", "alpha_grid", [True, 2.0]),
        ("sc-report", "r_grid", [0.1, "0.2"]),
        ("np-sweep", "a_grid", None),  # null is not a request for the default grid
        ("hoeffding", "r_grid", [-0.5, 0.1]),
        ("sc-report", "r_grid", [-0.5, 0.1]),
    ], ids=["string", "nan", "infinity", "bool", "numeric-string", "null",
            "hoeffding-negative-r", "sc-report-negative-r"])
    def test_bad_grid_entry(self, tmp_path, task, grid, entries):
        obj = {
            "task": task,
            "family": binary_family(),
            "params": {grid: entries},
        }
        expect_error(tmp_path, obj, f"$.params.{grid}")

    @pytest.mark.parametrize("task, field, value", [
        ("ldp", "params.prob", "0.5"),
        ("ldp", "params.window_hi", True),
        ("renyi", "params.n", 2.9),
        ("renyi", "family.scaling_exponent", 1.5),
        ("renyi", "family.scaling_exponent", True),
        ("ldp", "params.prob", 1.5),
        ("ldp", "params.t_range", [-2.0, -0.5]),
    ], ids=["prob-string", "window-bool", "n-float", "scaling-float", "scaling-bool",
            "prob-above-one", "t-range-below-zero"])
    def test_bad_scalar(self, tmp_path, task, field, value):
        obj = {"task": task, "family": binary_family(), "params": {}}
        section, key = field.split(".")
        obj[section][key] = value
        expect_error(tmp_path, obj, f"$.{field}")

    def test_prob_beyond_double_range_exits_two(self, tmp_path, capsys):
        # a 400-digit JSON integer loads as a Python int that float() overflows
        obj = {"task": "ldp", "family": binary_family(), "params": {"prob": 10**400}}
        scenario = write_scenario(tmp_path, obj)
        assert main(["ldp", "--scenario", scenario, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "prob must be a finite number", "field": "$.params.prob"}

    @pytest.mark.parametrize("nu", [1.9, True, "1", 2], ids=["float", "bool", "string", "two"])
    def test_quasifree_nu_must_be_one(self, tmp_path, nu):
        family = quasifree_family()
        family["payload"]["nu"] = nu
        err = expect_error(tmp_path, {"task": "hoeffding", "family": family}, "$.family")
        assert "nu" in err.message and "one-dimensional trig polynomials" in err.message

    @pytest.mark.parametrize("path, value", [
        (("c_bound",), "0.2"),
        (("c_bound",), True),
        (("q_symbol", "constant"), "0.45"),
        (("r_symbol", "constant"), False),
        (("q_symbol", "cos_coeffs"), ["0.2"]),
        (("r_symbol", "sin_coeffs"), [True]),
        (("r_symbol", "cos_coeffs"), -0.1),
    ], ids=["c_bound-string", "c_bound-bool", "constant-string", "constant-bool",
            "cos-string", "sin-bool", "cos-not-a-list"])
    def test_quasifree_numbers_must_be_json_numbers(self, tmp_path, path, value):
        family = quasifree_family()
        *parents, key = path
        target = family["payload"]
        for p in parents:
            target = target[p]
        target[key] = value
        err = expect_error(tmp_path, {"task": "hoeffding", "family": family}, "$.family")
        assert ".".join(path) in err.message and "finite JSON number" in err.message

    @pytest.mark.parametrize("symbol", ["q_symbol", "r_symbol"])
    def test_quasifree_symbol_must_be_object(self, tmp_path, capsys, symbol):
        family = quasifree_family()
        family["payload"][symbol] = [0.5]
        scenario = write_scenario(tmp_path, {"task": "sc-report", "family": family,
                                             "params": {"n_list": [2, 3], "r_grid": [0.3]}})
        assert main(["sc-report", "--scenario", scenario, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "$.family" and symbol in err["error"]

    @pytest.mark.parametrize("path, key", [
        (("q_symbol",), "cosine"),
        (("r_symbol",), "sin"),
        ((), "q"),
        ((), "scaling_exponent"),
    ], ids=["q-symbol-misspelled", "r-symbol-extra", "payload-extra", "payload-misplaced"])
    def test_quasifree_unknown_keys_are_refused(self, tmp_path, path, key):
        family = quasifree_family()
        target = family["payload"]
        for p in path:
            target = target[p]
        target[key] = [0.3]
        err = expect_error(tmp_path, {"task": "hoeffding", "family": family}, "$.family")
        assert repr(key) in err.message and "takes no" in err.message

    @pytest.mark.parametrize("family, path, value", [
        (binary_family, ("rho", "dim"), 2.9),
        (binary_family, ("rho", "dim"), "2"),
        (binary_family, ("sigma", "dim"), True),
        (binary_family, ("rho", "re"), ["0.7", 0.0, 0.0, 0.3]),
        (binary_family, ("rho", "re"), [True, 0.0, 0.0, 0.3]),
        (binary_family, ("sigma", "re"), [0.5, 0.0, 0.5]),
        (binary_family, ("sigma", "im"), [0.0, "0", 0.0, 0.0]),
        (markov_family, ("pi0",), ["0.5", 0.5]),
        (markov_family, ("P1",), [[0.5, 0.5], [0.55, True]]),
        (markov_family, ("P0",), [0.7, 0.3]),
        (onsite_gibbs_family, ("null", "site_dim"), "2"),
        (onsite_gibbs_family, ("alt", "beta"), "0.6"),
        (onsite_gibbs_family, ("null", "site_dim"), 2.7),
        (onsite_gibbs_family, ("alt", "beta"), True),
    ], ids=["dim-float", "dim-string", "dim-bool", "re-string", "re-bool", "re-short",
            "im-string", "pi0-string", "P1-bool", "P0-not-nested", "site_dim-string",
            "beta-string", "site_dim-float", "beta-bool"])
    def test_payload_numbers_must_be_json_numbers(self, tmp_path, family, path, value):
        family = family()
        *parents, key = path
        target = family["payload"]
        for p in parents:
            target = target[p]
        target[key] = value
        err = expect_error(tmp_path, {"task": "renyi", "family": family}, "$.family")
        assert f"{key} must be" in err.message

    @pytest.mark.parametrize("im", [None, "missing", [0, 0, 0, 0]],
                             ids=["null", "missing", "integers"])
    def test_operator_json_forms_load(self, tmp_path, im):
        family = binary_family()
        rho = family["payload"]["rho"]
        rho["re"] = [1, 0, 0, 0]  # integers are JSON numbers too
        if im == "missing":
            del rho["im"]
        else:
            rho["im"] = im
        scenario = load_scenario(write_scenario(tmp_path, {"task": "renyi", "family": family}))
        assert np.array_equal(scenario["family"].rho1.entries, np.diag([1.0, 0.0]))

    def test_bad_mode(self, tmp_path):
        obj = {
            "task": "np-sweep",
            "family": binary_family(),
            "params": {"mode": "bayesian"},
        }
        expect_error(tmp_path, obj, "$.params.mode")

    def test_bad_variant(self, tmp_path):
        obj = {
            "task": "family",
            "family": binary_family(),
            "params": {"variant": "petz-ish"},
        }
        expect_error(tmp_path, obj, "$.params.variant")

    def test_valid_scenario_loads(self, tmp_path):
        obj = {
            "task": "renyi",
            "family": binary_family(),
            "params": {"n": 2, "alpha_grid": [0.5, 2.0]},
        }
        scenario = load_scenario(write_scenario(tmp_path, obj))
        assert scenario["task"] == "renyi"
        assert scenario["family"].kind == "iid"
        assert scenario["params"]["n"] == 2

    def test_reversed_t_range(self, tmp_path):
        obj = {"task": "ldp", "params": {"t_range": [4.0, -1.0]}}
        err = expect_error(tmp_path, obj, "$.params.t_range")
        assert "lo < hi" in err.message

    def test_non_finite_t_range(self, tmp_path):
        obj = {"task": "ldp", "params": {"t_range": [-1.0, math.inf]}}
        expect_error(tmp_path, obj, "$.params.t_range")

    def test_scaling_exponent_must_match_the_family(self, tmp_path):
        family = binary_family()
        family["scaling_exponent"] = 2
        err = expect_error(tmp_path, {"task": "sc-report", "family": family}, "$.family")
        assert "lattice dimension" in err.message

    def test_defaults_fill_every_parameter(self, tmp_path):
        obj = {"task": "sc-report", "family": binary_family(), "params": {"r_grid": [0.3]}}
        scenario = load_scenario(write_scenario(tmp_path, obj))
        assert scenario["params"] == {**PARAMS["sc-report"], "r_grid": [0.3]}

    @pytest.mark.parametrize("task, family, n_list", [
        ("np-sweep", markov_family(), [1024]),
        ("sc-report", markov_family(), [1024]),
        ("ldp", None, [256, 512]),
    ], ids=["np-sweep", "sc-report", "ldp"])
    def test_too_few_sizes_refused_before_any_rate(self, tmp_path, capsys, monkeypatch,
                                                   task, family, n_list):
        calls = []
        monkeypatch.setattr(fam, "asymptotic_rate", lambda *args, **kw: calls.append(args))
        monkeypatch.setattr(ldp, "build_rate_curve", lambda *args, **kw: calls.append(args))
        obj = {"task": task, "params": {"n_list": n_list}}
        if family is not None:
            obj["family"] = family
        scenario = write_scenario(tmp_path, obj)
        assert main([task, "--scenario", scenario, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "$.params.n_list"
        assert calls == [] and not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("task, params", [
        ("renyi", {"alpha_grid": [0.0, 1.5]}),  # renyi writes both variants
        ("family", {"variant": "sandwiched", "alpha_grid": [-1.0, 1.5]}),
    ], ids=["renyi", "family-sandwiched"])
    def test_sandwiched_orders_must_be_positive(self, tmp_path, capsys, monkeypatch, task,
                                                params):
        calls = []
        monkeypatch.setattr(fam, "family_states", lambda *args, **kw: calls.append(args))
        scenario = write_scenario(tmp_path, {"task": task, "family": binary_family(),
                                             "params": params})
        assert main([task, "--scenario", scenario, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "sandwiched orders need alpha > 0",
                       "field": "$.params.alpha_grid"}
        assert calls == [] and not list(tmp_path.glob("*.csv"))

    def test_plain_family_takes_orders_at_most_zero(self, tmp_path):
        scenario = write_scenario(tmp_path, {
            "task": "family", "family": binary_family(),
            "params": {"variant": "plain", "n_list": [1, 2], "alpha_grid": [-1.0, 0.0, 1.5]},
        })
        assert main(["family", "--scenario", scenario, "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "family.csv").read_text().strip().split("\n")) == 7

    @pytest.mark.parametrize("make_family, payload_class", [
        (binary_family, fam.IIDPayload),
        (markov_family, fam.MarkovPayload),
        (onsite_gibbs_family, fam.GibbsPairPayload),
        (quasifree_family, QuasiFreePayload),
    ], ids=["iid", "markov", "gibbs", "quasifree"])
    def test_the_family_is_its_payload(self, tmp_path, make_family, payload_class):
        obj = {"task": "renyi", "family": make_family()}
        family = load_scenario(write_scenario(tmp_path, obj))["family"]
        assert isinstance(family, payload_class)
        assert type(fam.family_from_json(family_to_json(family))) is payload_class

    def test_a_report_holds_the_family(self, tmp_path):
        obj = {"task": "sc-report", "family": binary_family()}
        family = load_scenario(write_scenario(tmp_path, obj))["family"]
        assert ht.sc_report(family, 0.2, [16, 32, 64]).family is family

    def test_ldp_needs_no_family(self, tmp_path):
        obj = {"task": "ldp", "params": {"n_list": [256, 512, 1024]}}
        scenario = load_scenario(write_scenario(tmp_path, obj))
        assert "family" not in scenario

    @pytest.mark.parametrize("task", ["ldp", "verify"])
    def test_task_without_family_refuses_one(self, tmp_path, capsys, task):
        scenario = write_scenario(tmp_path, {"task": task, "family": {"kind": "nonsense"}})
        out = tmp_path / "out"
        assert main([task, "--scenario", scenario, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "$.family" and "family" in err["error"]
        assert not out.exists()


@pytest.fixture(scope="module")
def report():
    spec = fam.family_from_json(binary_family())
    return ht.exponent_sweep(spec, 0.08, [16, 32, 64, 128])


class TestConvergenceTable:
    def test_round_trip(self, report, tmp_path):
        path = emit_convergence_table(report, str(tmp_path / "table.csv"))
        parsed = parse_convergence_table(path)
        assert [row["n"] for row in parsed["per_n"]] == [16, 32, 64, 128]
        footer = parsed["footer"]
        assert footer is not None
        assert footer["fitted_beta_rate"] == pytest.approx(
            report.beta_fit.rate, rel=1e-10
        )
        assert footer["fitted_success_rate"] == pytest.approx(
            report.success_fit.rate, rel=1e-10
        )
        assert footer["success_r_squared"] == pytest.approx(
            report.success_fit.r_squared, rel=1e-10
        )
        assert footer["beta_r_squared"] == pytest.approx(
            report.beta_fit.r_squared, rel=1e-10
        )
        for row, ep in zip(parsed["per_n"], report.per_n):
            assert row["alpha_err"] == pytest.approx(ep.alpha_err, rel=1e-10)
            assert row["beta_err"] == pytest.approx(ep.beta_err, rel=1e-10)
            assert row["log_success_over_n"] == pytest.approx(
                ep.log_success / ep.n, rel=1e-10
            )
            assert row["provenance"] == report.provenance

    def test_file_format(self, report, tmp_path):
        path = emit_convergence_table(report, str(tmp_path / "table.csv"))
        raw = Path(path).read_bytes()
        assert not raw.startswith(b"\xef\xbb\xbf")  # no BOM
        assert b"\r" not in raw  # LF only
        text = raw.decode("utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CONVERGENCE_COLUMNS)
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(CONVERGENCE_COLUMNS)
            for cell in cells[1:-1]:  # all but n and provenance are floats
                assert FLOAT_CELL.match(cell), cell

    def test_emission_is_deterministic(self, report, tmp_path):
        p1 = emit_convergence_table(report, str(tmp_path / "a.csv"))
        p2 = emit_convergence_table(report, str(tmp_path / "b.csv"))
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_parse_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("x,y\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a convergence table"):
            parse_convergence_table(str(path))


class TestMain:
    def test_verify_exits_zero(self, tmp_path, capsys):
        rc = main(["verify", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert summary["failed"] == 0
        assert summary["seed"] == 42
        assert all(c["ok"] for c in summary["checks"])

    def test_np_sweep_end_to_end(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            {
                "task": "np-sweep",
                "family": binary_family(),
                "params": {"n_list": [16, 32, 64, 128], "a_grid": [0.08]},
            },
        )
        rc = main(["np-sweep", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 0
        out_path = tmp_path / "np_sweep.csv"
        assert out_path.exists()
        assert str(out_path) in capsys.readouterr().out
        parsed = parse_convergence_table(str(out_path))
        assert len(parsed["per_n"]) == 4
        assert parsed["footer"]["provenance"] == "exact-binomial"

    def test_multi_value_grid_suffixes(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "task": "np-sweep",
                "family": binary_family(),
                "params": {"n_list": [16, 32, 64], "a_grid": [0.05, 0.1]},
            },
        )
        rc = main(["np-sweep", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "np_sweep_00.csv").exists()
        assert (tmp_path / "np_sweep_01.csv").exists()

    @pytest.mark.parametrize("task, family, params", [
        ("np-sweep", binary_family(),
         {"n_list": [16, 32, 64], "a_grid": [0.05, 0.1]}),
        ("sc-report", markov_family(),
         {"n_list": [32, 64, 128, 256], "r_grid": [0.2, 0.4]}),
    ], ids=["np-sweep", "markov-sc-report"])
    def test_byte_stable_across_threads(self, tmp_path, task, family, params):
        scenario = write_scenario(
            tmp_path, {"task": task, "family": family, "params": params}
        )
        for threads, sub in ((1, "one"), (3, "three")):
            (tmp_path / sub).mkdir()
            rc = main([
                task, "--scenario", scenario,
                "--out", str(tmp_path / sub), "--threads", str(threads),
            ])
            assert rc == 0
        stem = task.replace("-", "_")
        for name in (f"{stem}_00.csv", f"{stem}_01.csv"):
            b1 = (tmp_path / "one" / name).read_bytes()
            b3 = (tmp_path / "three" / name).read_bytes()
            assert b1 == b3

    def test_pinched_dense_sc_report_exits_zero(self, tmp_path, capsys):
        # a qutrit pair takes the dense route in pinched mode; its floor must
        # be the pinched pair's positive part, which the pinched test attains
        rng = np.random.default_rng(3)
        rho, sigma = rand_density(3, rng), rand_density(3, rng)
        family = {
            "kind": "iid",
            "scaling_exponent": 1,
            "payload": {"rho": operator_to_json(rho), "sigma": operator_to_json(sigma)},
        }
        scenario = write_scenario(tmp_path, {
            "task": "sc-report",
            "family": family,
            "params": {"mode": "pinched", "n_list": [3, 4, 5], "r_grid": [0.05, 0.2]},
        })
        rc = main(["sc-report", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        for name in ("sc_report_00.csv", "sc_report_01.csv"):
            parsed = parse_convergence_table(str(tmp_path / name))
            assert parsed["footer"]["provenance"] == "dense"

    def test_pinched_degenerate_qubit_reference_takes_dense_route(self, tmp_path, capsys):
        # sigma = I/2 has no Hamming sectors; pinching by a scalar is the identity
        family = {
            "kind": "iid",
            "scaling_exponent": 1,
            "payload": {
                "rho": {"dim": 2, "re": [0.7, 0.2, 0.2, 0.3], "im": None},
                "sigma": {"dim": 2, "re": [0.5, 0.0, 0.0, 0.5], "im": None},
            },
        }
        params = {"mode": "pinched", "n_list": [3, 4, 5, 6], "r_grid": [0.3]}
        scenario = write_scenario(tmp_path, {"task": "sc-report", "family": family,
                                             "params": params})
        rc = main(["sc-report", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        parsed = parse_convergence_table(str(tmp_path / "sc_report.csv"))
        assert parsed["footer"]["provenance"] == "dense"
        spec = fam.family_from_json(family)
        pinched = ht.sc_report(spec, 0.3, params["n_list"], mode="pinched")
        plain = ht.sc_report(spec, 0.3, params["n_list"], mode="np")
        for a, b in zip(pinched.per_n, plain.per_n, strict=True):
            assert a.log_success == pytest.approx(b.log_success, abs=1e-12)

    def test_malformed_scenario_exits_two(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            {
                "task": "np-sweep",
                "family": binary_family(),
                "params": {"mode": "bayesian"},
            },
        )
        rc = main(["np-sweep", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert set(err) == {"error", "field"}
        assert err["field"] == "$.params.mode"

    def test_non_string_out_exits_two(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            {"task": "renyi", "family": binary_family(), "params": {"out": 5}},
        )
        rc = main(["renyi", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "$.params.out"

    @pytest.mark.parametrize("task, key, value", [
        ("sc-report", "r_gird", [0.3]), ("hoeffding", "mode", "np"), ("renyi", "variant", "plain"),
    ])
    def test_unknown_parameter_exits_two(self, tmp_path, capsys, task, key, value):
        # each value is one the key takes on the tasks that have it
        scenario = write_scenario(
            tmp_path, {"task": task, "family": binary_family(), "params": {key: value}}
        )
        assert main([task, "--scenario", scenario, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == f"$.params.{key}" and key in err["error"]
        assert not list(tmp_path.rglob("*.csv"))

    def test_unknown_top_level_key_exits_two(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {"task": "hoeffding", "family": binary_family(),
                                             "parmas": {"r_grid": [0.3]}})
        assert main(["hoeffding", "--scenario", scenario, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "$.parmas" and "parmas" in err["error"]
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("family, path, key", [
        (binary_family, (), "payload_version"),
        (binary_family, ("payload",), "tau"),
        (qubit_family, ("payload", "rho"), "imag"),
        (markov_family, ("payload",), "P2"),
        (onsite_gibbs_family, ("payload",), "third"),
        (onsite_gibbs_family, ("payload", "null"), "temperature"),
    ], ids=["family", "iid-payload", "operator", "markov-payload", "gibbs-pair-payload",
            "gibbs-payload"])
    def test_unknown_family_key_exits_two(self, tmp_path, capsys, family, path, key):
        # an operator's "im" spelled "imag" would otherwise drop its imaginary part
        obj = family()
        target = obj
        for p in path:
            target = target[p]
        target[key] = target.pop("im") if key == "imag" else 1.0
        scenario = write_scenario(tmp_path, {"task": "renyi", "family": obj})
        assert main(["renyi", "--scenario", scenario, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "$.family" and repr(key) in err["error"]
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("out", ["ABSOLUTE", "../x.csv", "sub/x.csv", "", ".", ".."],
                             ids=["absolute", "parent", "subdir", "empty", "dot", "dotdot"])
    def test_out_must_be_a_bare_file_name(self, tmp_path, capsys, out):
        (tmp_path / "run" / "sub").mkdir(parents=True)
        if out == "ABSOLUTE":
            out = str(tmp_path / "x.csv")
        scenario = write_scenario(
            tmp_path, {"task": "renyi", "family": binary_family(), "params": {"out": out}}
        )
        assert main(["renyi", "--scenario", scenario, "--out", str(tmp_path / "run")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "$.params.out"
        assert not list(tmp_path.rglob("*.csv"))

    def test_non_integer_seed_names_the_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCONV_SEED", "abc")
        assert main(["verify", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "SCONV_SEED" and "SCONV_SEED" in err["error"]
        assert not (tmp_path / "verify_summary.json").exists()

    def test_negative_seed_names_the_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCONV_SEED", "-1")
        assert main(["verify", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "SCONV_SEED must be a non-negative integer, not '-1'",
                       "field": "SCONV_SEED"}
        assert not (tmp_path / "verify_summary.json").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, threads):
        scenario = write_scenario(tmp_path, {"task": "sc-report", "family": binary_family()})
        with pytest.raises(SystemExit) as exc:
            main(["sc-report", "--scenario", scenario, "--out", str(tmp_path),
                  "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "sc_report.csv").exists()

    @pytest.mark.parametrize("task", ["renyi", "hoeffding", "family", "ldp", "verify"])
    def test_threads_only_on_the_sweeps(self, tmp_path, capsys, task):
        with pytest.raises(SystemExit) as exc:
            main([task, "--scenario", str(tmp_path / "unread.json"), "--out", str(tmp_path),
                  "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bad_t_range_exits_two(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path, {"task": "ldp", "params": {"t_range": ["a", 4.0]}}
        )
        rc = main(["ldp", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "$.params.t_range"

    def test_task_mismatch_exits_two(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            {"task": "renyi", "family": binary_family(), "params": {}},
        )
        rc = main(["hoeffding", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "$.task"

    def test_missing_scenario_file_exits_two(self, tmp_path, capsys):
        rc = main([
            "renyi", "--scenario", str(tmp_path / "nope.json"),
            "--out", str(tmp_path),
        ])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["field"] == "$"

    def test_scenario_flag_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["renyi", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_renyi_runner(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "task": "renyi",
                "family": binary_family(),
                "params": {"n": 2, "alpha_grid": [0.5, 1.0, 2.0]},
            },
        )
        rc = main(["renyi", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "renyi.csv").read_text().strip().split("\n")
        assert lines[0] == "alpha,variant,psi,divergence,provenance"
        assert len(lines) == 1 + 3 * 2  # three orders x two variants
        # commuting pair: both variants agree at matching order
        rows = [line.split(",") for line in lines[1:]]
        by_key = {(r[0], r[1]): float(r[3]) for r in rows}
        for alpha_cell in {r[0] for r in rows}:
            assert by_key[(alpha_cell, "plain")] == pytest.approx(
                by_key[(alpha_cell, "sandwiched")], abs=1e-10
            )

    def test_hoeffding_runner(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "task": "hoeffding",
                "family": binary_family(),
                "params": {"r_grid": [0.02, 0.2]},
            },
        )
        rc = main(["hoeffding", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "hoeffding.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        regimes = [line.split(",")[2] for line in lines[1:]]
        assert all(r in ("zero", "interior", "linear_tail") for r in regimes)

    def test_family_runner(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "task": "family",
                "family": binary_family(),
                "params": {"n_list": [1, 2, 3], "alpha_grid": [1.5]},
            },
        )
        rc = main(["family", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "family.csv").read_text().strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        # iid family: psi_n / n equals the n-independent limit, residual ~ 0
        for row in rows:
            assert abs(float(row[6])) < 1e-10

    @pytest.mark.parametrize("family, ns", [
        (qubit_family(), [2, 3, 4]),
        (markov_family(), [2, 4, 6]),
        (quasifree_family(), [2, 3, 4]),
        (onsite_gibbs_family(), [2, 3, 4]),
    ], ids=["iid", "markov", "quasifree", "gibbs"])
    @pytest.mark.parametrize("variant", ["plain", "sandwiched"])
    def test_family_psi_matches_independent_route(self, tmp_path, family, ns, variant):
        reference = FAMILY_PSI_REFERENCES[family["kind"]]
        payload = fam.family_from_json(family)
        alphas = [0.75, 1.5, 2.0]
        scenario = write_scenario(tmp_path, {
            "task": "family", "family": family,
            "params": {"n_list": ns, "alpha_grid": alphas, "variant": variant},
        })
        assert main(["family", "--scenario", scenario, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "family.csv").read_text().strip().split("\n")[1:]
        rows = [line.split(",") for line in lines]
        assert [(int(r[0]), float(r[1])) for r in rows] == [(n, a) for n in ns for a in alphas]
        for row in rows:
            want = reference(payload, int(row[0]), float(row[1]), variant)
            assert abs(float(row[3]) - want) <= 1e-9, row

    @pytest.mark.parametrize("task, params", [
        ("family", {"n_list": [2, 13]}),
        ("np-sweep", {"n_list": [4, 13], "mode": "np", "a_grid": [0.1]}),
    ], ids=["family", "dense-np-sweep"])
    def test_over_cap_block_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    task, params):
        calls = []
        monkeypatch.setattr(fam.IIDPayload, "states", lambda *args, **kw: calls.append(args))
        scenario = write_scenario(tmp_path, {"task": task, "family": qubit_family(),
                                             "params": params})
        assert main([task, "--scenario", scenario, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "block 13" in err["error"] and "cap" in err["error"]
        assert calls == [] and not list(tmp_path.glob("*.csv"))

    def test_over_cap_hamming_sector_refused_before_any_block(self, tmp_path, capsys,
                                                              sector_calls):
        scenario = write_scenario(tmp_path, {
            "task": "sc-report", "family": qubit_family(),
            "params": {"mode": "pinched", "n_list": [6, 361], "r_grid": [0.1]},
        })
        assert main(["sc-report", "--scenario", scenario, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "block 361" in err["error"] and "Hamming sector" in err["error"]
        assert sector_calls == [] and not list(tmp_path.glob("*.csv"))

    def test_pinched_sectors_run_past_the_old_matrix_cap(self, tmp_path, capsys):
        # block 15's middle sector has C(15, 7) = 6435 rows, more than the matrix
        # cap of 4096; the closed-form sector spectra build no matrix
        scenario = write_scenario(tmp_path, {
            "task": "sc-report", "family": qubit_family(),
            "params": {"mode": "pinched", "n_list": [6, 15, 64], "r_grid": [0.1]},
        })
        rc = main(["sc-report", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        parsed = parse_convergence_table(str(tmp_path / "sc_report.csv"))
        assert parsed["footer"]["provenance"] == "pinched-sectors"
        assert [row["n"] for row in parsed["per_n"]] == [6, 15, 64]

    def test_readme_shared_flags_match_every_subcommand(self, capsys):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        sentence = re.search(r"shared flags (.*?)\.\s", readme, re.S).group(1)
        documented = set(re.findall(r"`(--[\w-]+)`", sentence))
        offered = set()
        for task in TASKS:
            with pytest.raises(SystemExit) as done:
                main([task, "--help"])
            assert done.value.code == 0
            offered |= set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
        assert offered - {"--help"} == documented

    def test_readme_parameter_table_matches_params(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        documented, task = {}, None
        # a row with an empty task cell continues the task above it; a default
        # that is not one JSON literal in backticks is np-sweep's computed a_grid
        rows = re.findall(r"^\| *(`[\w-]+`)? *\| `(\w+)` \| (.+?) \|$", readme, re.M)
        for task_cell, name, default in rows:
            task = task_cell.strip("`") or task
            value = json.loads(default.strip("`")) if default.startswith("`") else None
            documented.setdefault(task, {})[name] = value
        assert {t: documented.get(t, {}) for t in TASKS} == PARAMS
        assert set(documented) <= set(TASKS)

    def test_ldp_runner(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "task": "ldp",
                "params": {"n_list": [256, 512, 1024], "x_grid": [0.7]},
            },
        )
        rc = main(["ldp", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "ldp.csv").read_text().strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        for row in rows:
            exact, bound, margin = float(row[2]), float(row[3]), float(row[5])
            assert exact <= bound + 1e-12  # Chernoff dominates every n
            assert margin <= 1e-12  # lower-bound margins approach 0 from below
        margins = [float(r[5]) for r in rows]
        assert margins[-1] > margins[0]

    def test_runner_value_error_exits_two(self, tmp_path, capsys):
        # x = 1 sits on the default upper window edge, so the tilt window is empty
        scenario = write_scenario(
            tmp_path, {"task": "ldp", "params": {"x_grid": [1.0]}}
        )
        rc = main(["ldp", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "x must lie at the left edge of the open window",
                       "field": "$.params"}

    def test_family_rate_failure_names_the_family(self, tmp_path, capsys):
        # identity transitions make the Markov transfer matrix reducible
        family = markov_family()
        family["payload"]["P0"] = family["payload"]["P1"] = [[1.0, 0.0], [0.0, 1.0]]
        scenario = write_scenario(tmp_path, {"task": "hoeffding", "family": family})
        rc = main(["hoeffding", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "transfer matrix is reducible; Perron limit undefined",
                       "field": "$.family"}

    def test_out_naming_a_file_exits_two(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {"task": "ldp",
                                             "params": {"n_list": [64, 128, 256]}})
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        rc = main(["ldp", "--scenario", scenario, "--out", str(afile)])
        assert rc == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["field"] == "--out" and "File exists" in err["error"]

    def test_ldp_builds_one_table_per_grid(self, tmp_path, monkeypatch):
        # the Chernoff grid and the Gaertner-Ellis grid: one log-MGF row per
        # size each, however many x there are
        grid_calls = []
        log_mgf = ldp.log_mgf

        def counted(seq, n, t):
            if np.ndim(t):
                grid_calls.append(n)
            return log_mgf(seq, n, t)

        monkeypatch.setattr(ldp, "log_mgf", counted)
        scenario = write_scenario(tmp_path, {"task": "ldp", "params": {
            "n_list": [64, 128, 256, 512, 1024], "x_grid": [0.6, 0.7, 0.8, 0.9]}})
        assert main(["ldp", "--scenario", scenario, "--out", str(tmp_path)]) == 0
        assert sorted(grid_calls) == sorted(2 * [64, 128, 256, 512, 1024])

    @pytest.mark.parametrize("task, case, extra, owner, name, builds", [
        ("sc-report", CATALOG / "markov-sc-report" / "s00", ["--threads", "2"],
         ht, "_markov_run_classes", 4),
        ("sc-report", CATALOG / "quasifree-sc-report" / "s00", [], fam, "family_states", 5),
        ("np-sweep", SHORT_JOBS_CASE, [], ht, "iid_type_class_error_pair", 4),
    ], ids=["markov-run-classes", "quasifree-states", "type-classes"])
    def test_one_build_per_block_per_sweep(self, tmp_path, monkeypatch, task, case, extra,
                                           owner, name, builds):
        # every threshold of the grid is read off one class stream or state
        # pair per block size: 4 sizes for Markov and np-sweep, 5 for quasi-free
        calls = []
        build = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or build(*args))
        stem = task.replace("-", "_")
        rc = main([task, "--scenario", str(case / f"{stem}.json"), "--out", str(tmp_path)]
                  + extra)
        assert rc == 0
        assert len(calls) == builds

    def test_report_invariant_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sconv.cli._report_invariant_failures",
                            lambda report: ["n=6: forced failure"])
        scenario = write_scenario(
            tmp_path,
            {
                "task": "sc-report",
                "family": binary_family(),
                "params": {"n_list": [16, 32, 64], "r_grid": [0.2]},
            },
        )
        rc = main(["sc-report", "--scenario", scenario, "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "n=6: forced failure", "field": "$.run"}
        assert (tmp_path / "sc_report.csv").exists()

    def test_verify_summary_bytes_match_benchmark_reference(self, tmp_path, monkeypatch):
        # the summary prints the residuals of the spectral identity checks, so
        # equal bytes mean the spectral layer moved no bit on seed 42
        monkeypatch.setenv("SCONV_SEED", "42")
        assert main(["verify", "--out", str(tmp_path)]) == 0
        ref = SHORT_JOBS_CASE / "ref" / "verify_summary.json"
        assert (tmp_path / "verify_summary.json").read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("task, case, extra", [
        ("ldp", SHORT_JOBS_CASE, []),
        *[("ldp", SHORT_JOBS_CASE.with_name(f"s{i:02d}"), []) for i in range(1, 16)],
        ("np-sweep", SHORT_JOBS_CASE, []),
        ("sc-report", CATALOG / "markov-sc-report" / "s00", ["--threads", "2"]),
        *[("sc-report", SHORT_JOBS_CASE.with_name(f"s{i:02d}"), ["--threads", "2"])
          for i in range(16)],
        ("sc-report", CATALOG / "quasifree-sc-report" / "s00", []),
        ("sc-report", CATALOG / "quasifree-sc-report" / "s00", ["--threads", "2"]),
    ], ids=["ldp", *[f"ldp-s{i:02d}" for i in range(1, 16)], "np-sweep", "markov-sc-report",
            "pinched-sc-report",
            *[f"pinched-sc-report-s{i:02d}" for i in range(1, 16)],
            "quasifree-sc-report", "quasifree-sc-report-threads"])
    def test_ldp_bytes_match_benchmark_reference(self, tmp_path, task, case, extra):
        # a benchmark catalog scenario and the CSVs its reference commit wrote
        stem = task.replace("-", "_")
        rc = main([task, "--scenario", str(case / f"{stem}.json"), "--out", str(tmp_path)]
                  + extra)
        assert rc == 0
        refs = sorted(p.name for p in (case / "ref").glob(f"{stem}*.csv"))
        assert refs and sorted(p.name for p in tmp_path.glob("*.csv")) == refs
        for name in refs:
            assert (tmp_path / name).read_bytes() == (case / "ref" / name).read_bytes()

    @pytest.mark.parametrize("workload", ["markov-sc-report", "quasifree-sc-report",
                                          "pinched-and-short-jobs"])
    def test_hoeffding_values_match_the_reports_predicted_H(self, tmp_path, workload):
        # the anti-divergence through a second task: a hoeffding scenario on each
        # draw's sc-report family, r_grid and variant writes, for every r, the
        # predicted_H cells of that r's reference report
        for case in sorted((CATALOG / workload).glob("s[0-9][0-9]")):
            report = json.loads((case / "sc_report.json").read_text(encoding="utf-8"))
            r_grid = report["params"]["r_grid"]
            params = {"r_grid": r_grid, "out": "h.csv"}
            if "variant" in report["params"]:
                params["variant"] = report["params"]["variant"]
            scenario = write_scenario(
                tmp_path, {"task": "hoeffding", "family": report["family"], "params": params})
            assert main(["hoeffding", "--scenario", scenario, "--out", str(tmp_path)]) == 0
            rows = read_csv(tmp_path / "h.csv")
            assert [float(row["r"]) for row in rows] == r_grid
            for idx, row in enumerate(rows):
                name = f"sc_report_{idx:02d}.csv" if len(r_grid) > 1 else "sc_report.csv"
                cells = {line["predicted_H"] for line in read_csv(case / "ref" / name)}
                assert cells == {row["value"]}, (case.name, idx)
