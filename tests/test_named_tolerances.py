"""Every small float literal of ``src/sconv`` is a named module constant.

A tolerance written inline is a second rule beside the named one, so the walk
below refuses any float literal with ``0 < |x| < 1e-3`` outside a module-level
assignment.  Exempt are the coefficients that make ``log_factorials`` the same
to the bit as cephes ``lgam``, ``_brentq``'s copy of scipy's defaults, and
``verify.py``, whose per-check thresholds are its pass criteria.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sconv"
EXEMPT_FUNCTIONS = {("operators.py", "log_factorials"), ("ldp.py", "_brentq")}


def _small_literals(path):
    """``(line, value)`` of each float literal ``0 < |x| < 1e-3`` in ``path``
    outside module-level assignments and exempt functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = set()
    for node in tree.body:
        exempt = (isinstance(node, ast.FunctionDef)
                  and (path.name, node.name) in EXEMPT_FUNCTIONS)
        if exempt or isinstance(node, (ast.Assign, ast.AnnAssign)):
            skipped.update(map(id, ast.walk(node)))
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < abs(node.value) < 1e-3 and id(node) not in skipped]


def test_no_small_float_literal_outside_a_module_constant():
    found = {path.name: lits for path in sorted(SRC.glob("*.py"))
             if path.name != "verify.py" and (lits := _small_literals(path))}
    assert found == {}


def test_the_walk_sees_an_inline_tolerance(tmp_path):
    path = tmp_path / "hyptest.py"
    path.write_text("TOL = 1e-9\n\ndef f(x):\n    return x > 1e-12 and x < TOL\n")
    assert _small_literals(path) == [(4, 1e-12)]
