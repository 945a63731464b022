"""Unit tests for the batch command line: scenario validation, table emission,
exit codes, and byte-stable CSV output."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from sconv import families as fam
from sconv import hyptest as ht
from sconv.cli import (
    CONVERGENCE_COLUMNS,
    ScenarioError,
    emit_convergence_table,
    load_scenario,
    main,
    parse_convergence_table,
)
from sconv.operators import operator_to_json, rand_density

CATALOG = Path(__file__).resolve().parents[1] / "perfbench" / "catalog"
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
    ], ids=["string", "nan", "infinity"])
    def test_bad_grid_entry(self, tmp_path, task, grid, entries):
        obj = {
            "task": task,
            "family": binary_family(),
            "params": {grid: entries},
        }
        expect_error(tmp_path, obj, f"$.params.{grid}")

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

    def test_ldp_needs_no_family(self, tmp_path):
        obj = {"task": "ldp", "params": {"n_list": [256, 512, 1024]}}
        scenario = load_scenario(write_scenario(tmp_path, obj))
        assert "family" not in scenario


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

    @pytest.mark.parametrize("task, case, extra", [
        ("ldp", SHORT_JOBS_CASE, []),
        ("np-sweep", SHORT_JOBS_CASE, []),
        ("sc-report", CATALOG / "markov-sc-report" / "s00", ["--threads", "2"]),
    ], ids=["ldp", "np-sweep", "markov-sc-report"])
    def test_ldp_bytes_match_benchmark_reference(self, tmp_path, task, case, extra):
        # a benchmark draw-0 scenario and the CSVs its reference commit wrote
        stem = task.replace("-", "_")
        rc = main([task, "--scenario", str(case / f"{stem}.json"), "--out", str(tmp_path)]
                  + extra)
        assert rc == 0
        refs = sorted(p.name for p in (case / "ref").glob(f"{stem}*.csv"))
        assert refs and sorted(p.name for p in tmp_path.glob("*.csv")) == refs
        for name in refs:
            assert (tmp_path / name).read_bytes() == (case / "ref" / name).read_bytes()
