"""Smoke test: every demo script runs to completion (each takes a few seconds)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_renyi_divergence_curves.py",
    "02_hoeffding_regimes.py",
    "03_binary_strong_converse.py",
    "04_pinched_quantum_route.py",
    "05_markov_transfer.py",
    "06_gibbs_factorization.py",
    "07_quasifree_szego.py",
    "08_ldp_binomial.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    # one BLAS thread: beside other jobs on a shared 2-core host, spinning BLAS threads
    # slowed demo 06 from 3 s to 50 s
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
