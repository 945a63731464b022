"""``sconv`` runs its shipped jobs with scipy unimportable: a fresh process
refuses every ``scipy`` import, runs ``sc-report`` on the Markov and
quasi-free benchmark draws, ``ldp``, ``np-sweep`` and ``verify``, and each job
writes the reference bytes of its benchmark draw 0."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOG = ROOT / "perfbench" / "catalog"
SHORT_JOBS_CASE = CATALOG / "pinched-and-short-jobs" / "s00"

# (task, benchmark draw, extra flags); the Markov job runs first, so the
# numpy.ma check after it covers the rate fit of a report
JOBS = [
    ("sc-report", CATALOG / "markov-sc-report" / "s00", ["--threads", "2"]),
    ("sc-report", CATALOG / "quasifree-sc-report" / "s00", []),
    ("ldp", SHORT_JOBS_CASE, []),
    ("np-sweep", SHORT_JOBS_CASE, []),
    ("verify", SHORT_JOBS_CASE, []),
]

CHILD = r"""
import importlib.abc, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
from sconv.cli import main

codes, ma_after_markov = [], None
for argv in json.loads(sys.argv[1]):
    codes.append(main(argv))
    if ma_after_markov is None:
        ma_after_markov = "numpy.ma" in sys.modules
print(json.dumps({"codes": codes, "ma_after_markov": ma_after_markov,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_shipped_jobs_run_and_match_references_without_scipy(tmp_path):
    argvs = []
    for i, (task, case, extra) in enumerate(JOBS):
        argv = [task, "--out", str(tmp_path / str(i))] + extra
        if task != "verify":
            argv += ["--scenario", str(case / f"{task.replace('-', '_')}.json")]
        argvs.append(argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SCONV_SEED="42")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0] * len(JOBS), "ma_after_markov": False, "scipy": []}
    for i, (task, case, _) in enumerate(JOBS):
        out = tmp_path / str(i)
        pattern = "verify_summary.json" if task == "verify" else f"{task.replace('-', '_')}*.csv"
        refs = sorted(p.name for p in (case / "ref").glob(pattern))
        assert refs and sorted(p.name for p in out.glob(pattern)) == refs, task
        for name in refs:
            assert (out / name).read_bytes() == (case / "ref" / name).read_bytes(), name
