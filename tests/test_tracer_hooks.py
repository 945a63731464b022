"""The benchmark's span tracer (``perfbench/tracer.py``) wraps public ``sconv``
functions by name; these tests fail when a wrapped name goes missing or an
engine call stops being a direct child of its sweep."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import sconv.cli  # noqa: F401  (imports every module the tracer patches)
from sconv import hyptest as ht
from sconv.families import IIDPayload, MarkovPayload, asymptotic_rate
from sconv.operators import HermitianOperator

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("sconv_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(modname, attr):
    owner = sys.modules[modname]
    if "." in attr:  # a method, read off its class
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_install_and_uninstall_restore_every_target(tracer_module):
    targets = [(modname, attr) for modname, attr, *_ in tracer_module.TARGETS]
    before = {target: _current(*target) for target in targets}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert {f"{modname}.{attr}" for modname, attr in targets} <= set(tracer.rebound)
    finally:
        tracer.uninstall()
    for target in targets:
        assert _current(*target) is before[target], target


def test_engine_calls_sit_directly_under_the_sweep(tracer_module):
    binary = IIDPayload(
        HermitianOperator(np.diag([0.25, 0.75])),
        HermitianOperator(np.diag([0.75, 0.25])),
    )
    rate = asymptotic_rate(binary)
    tail_r = rate.slope_at_infinity + 0.4
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        ht.exponent_sweep(binary, 0.5, [8, 16, 32], rate=rate)
        report = ht.sc_report(binary, tail_r, [8, 16, 32, 64], rate=rate)
    finally:
        tracer.uninstall()
    assert report.regime == "linear_tail"
    spans = tracer.dump()
    metrics = tracer_module.layer_metrics(spans)
    assert metrics["hyptest.engine_calls"] == 7
    # each engine span records the block size it ran
    assert sorted(n for _, n in tracer_module._engine_spans(spans)) == sorted(
        [8, 16, 32] + [8, 16, 32, 64])
    # the sweep's polar, then hoeffding_anti's boundary polar and one polar
    # at the report's threshold
    assert metrics["hoeffding.polar_calls"] == 3


@pytest.mark.parametrize("family, mode, engine", [
    (MarkovPayload(pi0=[0.6, 0.4], pi1=[0.5, 0.5],
                   P0=[[0.7, 0.3], [0.2, 0.8]], P1=[[0.5, 0.5], [0.4, 0.6]]),
     "np", "hyptest.markov_error_pair"),
    (IIDPayload(HermitianOperator(np.diag([0.85, 0.15])),
                HermitianOperator(np.array([[0.6, 0.2], [0.2, 0.4]]))),
     "pinched", "hyptest.qubit_sector_error_pair"),
], ids=["run-classes", "hamming-sectors"])
def test_exact_engine_spans_record_their_block_size(tracer_module, family, mode, engine):
    # the tracer reads n by position: a reordered engine signature zeroes the
    # per-size engine metrics
    ns = [4, 6, 8]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        ht.exponent_sweep(family, 0.1, ns, mode=mode, threads=1)
    finally:
        tracer.uninstall()
    spans = tracer.dump()
    engine_spans = tracer_module._engine_spans(spans)
    assert {spans[i][0] for i, _ in engine_spans} == {engine}
    assert sorted(n for _, n in engine_spans) == ns
