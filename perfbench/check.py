"""Cell-by-cell comparison of a run's outputs with the catalog references.

Non-float cells (``n``, regime, provenance, the ``fit`` footer label) must
match exactly.  Float cells (written by the CLI as ``%.11e``, or ``nan``,
``inf``) must agree to ``FLOAT_RTOL`` relative.  Why that tolerance: the
numbers come out of golden-section and bisection searches that stop at an
interval width of 1e-10, and a change in floating-point summation order
(BLAS threading, a vectorised rewrite) can steer a search to another point
inside that final interval.  A relative difference of 1e-8 is a hundred
times that stopping width and four digits below the 12 significant digits
the CSVs print, so it separates reordering noise from a changed result.
``FLOAT_ATOL`` only lets a cell that is zero up to rounding match a true
zero.

Whether every file is byte-identical to its reference is reported on its
own, since the CSVs are meant to be byte-stable.  ``verify_summary.json``
must report 0 failed checks and the reference's check names.
"""

import csv
import json
import math
import os

FLOAT_RTOL = 1e-8
FLOAT_ATOL = 1e-14


def _as_float(cell):
    if cell in ("nan", "inf", "-inf") or "e" in cell:
        try:
            return float(cell)
        except ValueError:
            return None
    return None


def _cells_match(got, want):
    if got == want:
        return True
    g, w = _as_float(got), _as_float(want)
    if g is None or w is None:
        return False
    if math.isnan(g) or math.isnan(w) or math.isinf(g) or math.isinf(w):
        return False
    return math.isclose(g, w, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)


def _compare_csv(path, ref):
    with open(path, encoding="utf-8", newline="") as f:
        got = list(csv.reader(f))
    with open(ref, encoding="utf-8", newline="") as f:
        want = list(csv.reader(f))
    if len(got) != len(want):
        return [f"{len(got)} rows, reference has {len(want)}"]
    problems = []
    for i, (grow, wrow) in enumerate(zip(got, want)):
        if len(grow) != len(wrow):
            problems.append(f"row {i}: {len(grow)} cells, reference has {len(wrow)}")
            continue
        for j, (g, w) in enumerate(zip(grow, wrow)):
            if not _cells_match(g, w):
                problems.append(f"row {i} col {j}: {g!r} != reference {w!r}")
    return problems


def _compare_verify(path, ref):
    with open(path, encoding="utf-8") as f:
        got = json.load(f)
    with open(ref, encoding="utf-8") as f:
        want = json.load(f)
    problems = []
    if got.get("failed") != 0:
        problems.append(f"verify reports {got.get('failed')} failed checks")
    names = [c["name"] for c in got.get("checks", [])]
    if names != [c["name"] for c in want["checks"]]:
        problems.append(f"verify ran checks {names}, reference ran another set")
    return problems


def compare_outputs(out_dir, ref_dir):
    """``{"ok", "bytes_identical", "files", "problems"}`` for one run."""
    want = sorted(os.listdir(ref_dir))
    got = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    problems = [f"missing output {n}" for n in want if n not in got]
    problems += [f"unexpected output {n}" for n in got if n not in want]
    identical = not problems
    for name in want:
        if name not in got:
            continue
        path, ref = os.path.join(out_dir, name), os.path.join(ref_dir, name)
        with open(path, "rb") as f, open(ref, "rb") as g:
            identical = identical and f.read() == g.read()
        compare = _compare_verify if name.endswith(".json") else _compare_csv
        problems += [f"{name}: {p}" for p in compare(path, ref)]
    return {"ok": not problems, "bytes_identical": identical, "files": len(want),
            "problems": problems}
