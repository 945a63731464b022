"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest -q perfbench/tests

The repeatability test makes two traced runs of every workload (about a
minute on a 2-core machine).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
from check import FLOAT_RTOL, compare_outputs  # noqa: E402
from workloads import CHILD_ENV, WORKLOADS, case_dir  # noqa: E402


def test_benchmark_json_names_every_workload_and_block_size():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {f"hyptest.engine_s.n{n}" for n in tracer.BLOCK_SIZES} <= {
        m["name"] for m in spec["per_layer"]}


def test_self_time_is_union_of_uncovered_intervals():
    # outer [0, 10] with children [1, 3] and [5, 6]; a second thread's
    # outer span [2, 4] overlaps the first one's self time
    spans = [
        ["renyi.psi", 0.0, 10.0, None, 1, None],
        ["operators.eigh", 1.0, 3.0, 0, 1, [4, 4]],
        ["operators.eigh", 5.0, 6.0, 0, 1, [2, 3, 3]],
        ["renyi.psi", 2.0, 4.0, None, 2, None],
    ]
    m = tracer.layer_metrics(spans)
    assert m["renyi.psi_calls"] == 2
    # thread 1 self: [0,1] [3,5] [6,10]; thread 2 adds [2,3] only
    assert m["renyi.psi_s"] == pytest.approx(8.0)
    assert m["operators.eigh_s"] == pytest.approx(3.0)
    assert m["operators.eigh_max_dim"] == 4
    assert m["operators.eigh_dim3_sum"] == 4**3 + 2 * 3**3
    assert m["trace.covered_s"] == pytest.approx(10.0)


def test_dense_engine_parts_inherit_block_size():
    spans = [
        ["hyptest.exponent_sweep", 0.0, 10.0, None, 1, None],
        ["families.family_states", 1.0, 2.0, 0, 1, 6],
        ["hyptest.np_test", 2.0, 3.0, 0, 1, None],
        ["operators.positive_part_trace", 3.0, 4.0, 0, 1, None],
        ["hyptest.error_pair", 4.0, 4.5, 0, 1, 6],
        ["families.family_states", 5.0, 7.0, 0, 1, 7],
        ["hyptest.np_test", 7.0, 9.0, 0, 1, None],
        ["families.family_states", 9.5, 9.6, None, 1, 7],  # not under a sweep
    ]
    m = tracer.layer_metrics(spans)
    assert m["hyptest.engine_calls"] == 2
    assert m["hyptest.engine_s.n6"] == pytest.approx(3.5)
    assert m["hyptest.engine_s.n7"] == pytest.approx(4.0)
    assert m["hyptest.engine_s"] == pytest.approx(7.5)
    assert m["families.states_per_distinct_n"] == pytest.approx(1.5)
    # the sweep's own time [0,1] [4.5,5] [9,10] is not covered; the stray
    # family_states call outside the sweep is
    assert m["trace.covered_s"] == pytest.approx(7.6)


def test_tracer_rebinds_aliases_and_restores_them():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sconv import cli, hoeffding, hyptest

    original = hoeffding.hoeffding_anti
    tr = tracer.Tracer().install()
    try:
        assert hyptest.hoeffding_anti is hoeffding.hoeffding_anti is cli.hoeffding_anti
        assert hyptest.hoeffding_anti is not original
        assert "sconv.hyptest.polar_detail" in tr.rebound
        assert "sconv.families.psi" in tr.rebound
    finally:
        tr.uninstall()
    assert hyptest.hoeffding_anti is original is cli.hoeffding_anti


def _write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def test_check_tolerance_and_exact_cells(tmp_path):
    ref, out = tmp_path / "ref", tmp_path / "out"
    ref.mkdir()
    out.mkdir()
    _write(ref / "t.csv", "n,x,regime\n8,1.00000000000e+00,zero\n")
    _write(out / "t.csv", "n,x,regime\n8,1.00000000010e+00,zero\n")
    res = compare_outputs(str(out), str(ref))
    assert res["ok"] and not res["bytes_identical"]
    _write(out / "t.csv", f"n,x,regime\n8,{1 + 100 * FLOAT_RTOL:.11e},zero\n")
    assert not compare_outputs(str(out), str(ref))["ok"]
    _write(out / "t.csv", "n,x,regime\n9,1.00000000000e+00,zero\n")
    assert not compare_outputs(str(out), str(ref))["ok"]
    _write(out / "t.csv", "n,x,regime\n8,1.00000000000e+00,interior\n")
    assert not compare_outputs(str(out), str(ref))["ok"]


def test_fails_without_the_program(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's files
    subprocess.run(["cp", "-r", BENCH, str(tmp_path / "perfbench")], check=True)
    subprocess.run(["cp", os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path)], check=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pinched-and-short-jobs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


REPEATABLE = ("_calls", "eigh_dim3_sum", "eigh_max_dim", "rate_evals",
              "states_per_distinct_n", "rate_evals_per_anti")


def _traced_counts(workload, tmp_path, label):
    result = tmp_path / f"{label}.json"
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload, "--case", case_dir(workload, 0),
         "--out", str(tmp_path / label), "--mode", "trace", "--result", str(result)],
        check=True, stdout=subprocess.DEVNULL, env=dict(os.environ, **CHILD_ENV),
        timeout=300)
    layers = json.loads(result.read_text())["layers"]
    return {k: v for k, v in layers.items() if k.endswith(REPEATABLE)}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly(workload, tmp_path):
    first = _traced_counts(workload, tmp_path, "a")
    second = _traced_counts(workload, tmp_path, "b")
    assert first == second
    assert first["hyptest.engine_calls"] > 0
