"""Outside-in span tracing of sconv's layers.

The tracer wraps public functions of the ``sconv`` modules (plus
``numpy.linalg.eigh``/``eigvalsh`` and ``ConvexRate.__call__``) from outside
the package: nothing in ``src/`` knows it is traced.  A module that imported a
function by name (``from .hoeffding import hoeffding_anti``) holds its own
reference, so every ``sconv`` module attribute that *is* the original object
is rebound as well; otherwise those call sites would silently go uncounted.

A span is ``[name, start, end, parent, thread, arg]``: ``parent`` is the
index of the enclosing traced call in the same thread (or ``None``), ``arg``
the block size ``n`` for engines and ``family_states`` or the array shape for
eigh calls.  Spans stay in memory until :meth:`Tracer.dump`.

:func:`layer_metrics` turns spans into the per-layer metrics.  Times are self
times (a span's duration minus the parts its traced children cover), taken as
the length of the union of those intervals over all threads, so a layer busy
in two threads at once is not counted twice.  The one inclusive time is the
engine: ``hyptest.engine_s`` is how long ``exponent_sweep`` waits on its
engine, which for the dense engine is the sum of its public parts
(``family_states``, ``np_test``/``pinched_np_test``, ``positive_part_trace``
and ``error_pair``) including the eigh calls they make.
"""

import functools
import math
import sys
import threading
import time
from collections import defaultdict


def _arg(pos, key):
    def get(args, kwargs):
        if key in kwargs:
            return kwargs[key]
        return args[pos] if len(args) > pos else None
    return get


def _shape(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    return list(getattr(a, "shape", ()))


# (module, attribute, span name, argument recorder)
TARGETS = (
    ("sconv.cli", "load_scenario", "cli.load_scenario", None),
    ("sconv.cli", "emit_convergence_table", "cli.emit", None),
    ("sconv.hyptest", "sc_report", "hyptest.sc_report", None),
    ("sconv.hyptest", "exponent_sweep", "hyptest.exponent_sweep", None),
    ("sconv.hyptest", "markov_error_pair", "hyptest.markov_error_pair", _arg(1, "n")),
    ("sconv.hyptest", "qubit_sector_error_pair", "hyptest.qubit_sector_error_pair",
     _arg(2, "n")),
    ("sconv.hyptest", "iid_type_class_error_pair", "hyptest.iid_type_class_error_pair",
     _arg(2, "n")),
    ("sconv.hyptest", "np_test", "hyptest.np_test", None),
    ("sconv.hyptest", "pinched_np_test", "hyptest.pinched_np_test", None),
    ("sconv.hyptest", "error_pair", "hyptest.error_pair", _arg(2, "n")),
    ("sconv.operators", "positive_part_trace", "operators.positive_part_trace", None),
    ("numpy.linalg", "eigh", "operators.eigh", _shape),
    ("numpy.linalg", "eigvalsh", "operators.eigvalsh", _shape),
    ("sconv.hoeffding", "hoeffding_anti", "hoeffding.hoeffding_anti", None),
    ("sconv.hoeffding", "polar_detail", "hoeffding.polar_detail", None),
    ("sconv.hoeffding", "ConvexRate.__call__", "hoeffding.rate_eval", None),
    ("sconv.renyi", "psi", "renyi.psi", None),
    ("sconv.families", "asymptotic_rate", "families.asymptotic_rate", None),
    ("sconv.families", "family_states", "families.family_states", _arg(1, "n")),
    ("sconv.quasifree", "szego_limit", "quasifree.szego_limit", None),
    ("sconv.quasifree", "fock_density", "quasifree.fock_density", None),
    ("sconv.ldp", "log_mgf", "ldp.log_mgf", None),
    ("sconv.ldp", "chernoff_upper", "ldp.chernoff_upper", None),
    ("sconv.ldp", "gartner_ellis_lower_check", "ldp.gartner_ellis_lower_check", None),
    ("sconv.verify", "run_all_checks", "verify.run_all_checks", None),
)


class Tracer:
    """Wraps the targets on :meth:`install`, restores them on :meth:`uninstall`."""

    def __init__(self):
        self.spans = []
        self.rebound = []
        self._local = threading.local()
        self._undo = []

    def _wrap(self, orig, name, record_arg):
        spans, local = self.spans, self._local
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, ident(),
                   record_arg(args, kwargs) if record_arg else None]
            spans.append(rec)
            stack.append(rec)
            rec[1] = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr, value, label):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)
        self.rebound.append(label)

    def install(self):
        sconv_modules = [m for name, m in sorted(sys.modules.items())
                         if m is not None and (name == "sconv" or name.startswith("sconv."))]
        for modname, attr, name, record_arg in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:  # a method: patch the class, every instance follows
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(cls.__dict__[meth], name, record_arg),
                          f"{modname}.{attr}")
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(orig, name, record_arg)
            self._set(owner, attr, traced, f"{modname}.{attr}")
            for mod in sconv_modules:  # aliases made by ``from .x import y``
                for key, value in list(vars(mod).items()):
                    if value is orig and not (mod is owner and key == attr):
                        self._set(mod, key, traced, f"{mod.__name__}.{key}")
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self):
        """Spans as plain lists, parents replaced by their index."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [[name, start, end, None if parent is None else index[id(parent)], tid, arg]
                for name, start, end, parent, tid, arg in self.spans]


# -- aggregation -----------------------------------------------------------

BLOCK_SIZES = (6, 7, 8, 9, 10, 11, 12, 128, 256, 512, 1024, 2048, 4096)
SWEEPS = {"hyptest.sc_report", "hyptest.exponent_sweep"}
EXACT_ENGINES = {"hyptest.markov_error_pair", "hyptest.qubit_sector_error_pair",
                 "hyptest.iid_type_class_error_pair"}
DENSE_PARTS = {"families.family_states", "hyptest.np_test", "hyptest.pinched_np_test",
               "operators.positive_part_trace", "hyptest.error_pair"}
EIGH = {"operators.eigh", "operators.eigvalsh"}

SELF_TIMES = {
    "hyptest.sweep_s": SWEEPS,
    "operators.eigh_s": EIGH,
    "hoeffding.anti_s": {"hoeffding.hoeffding_anti"},
    "hoeffding.polar_s": {"hoeffding.polar_detail"},
    "hoeffding.rate_eval_s": {"hoeffding.rate_eval"},
    "renyi.psi_s": {"renyi.psi"},
    "families.rate_build_s": {"families.asymptotic_rate"},
    "families.states_s": {"families.family_states"},
    "quasifree.szego_s": {"quasifree.szego_limit"},
    "quasifree.fock_s": {"quasifree.fock_density"},
    "ldp.log_mgf_s": {"ldp.log_mgf"},
    "ldp.chernoff_s": {"ldp.chernoff_upper"},
    "ldp.ge_check_s": {"ldp.gartner_ellis_lower_check"},
    "verify.checks_s": {"verify.run_all_checks"},
    "cli.load_scenario_s": {"cli.load_scenario"},
    "cli.emit_s": {"cli.emit"},
}
COUNTS = {
    "operators.eigh_calls": EIGH,
    "hoeffding.anti_calls": {"hoeffding.hoeffding_anti"},
    "hoeffding.polar_calls": {"hoeffding.polar_detail"},
    "hoeffding.rate_evals": {"hoeffding.rate_eval"},
    "renyi.psi_calls": {"renyi.psi"},
    "families.states_calls": {"families.family_states"},
    "quasifree.szego_calls": {"quasifree.szego_limit"},
    "quasifree.fock_calls": {"quasifree.fock_density"},
    "ldp.log_mgf_calls": {"ldp.log_mgf"},
}


def _union(intervals):
    """Total length covered by a set of intervals."""
    total, reach = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def _self_intervals(spans):
    """Per span, the parts of its interval no traced child covers."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    pieces = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        own, t = [], start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            own.append((t, spans[c][1]))
            t = spans[c][2]
        own.append((t, end))
        pieces.append(own)
    return pieces


def _engine_spans(spans):
    """``(index, n)`` of the spans an ``exponent_sweep`` waits on as its engine.

    Dense-engine parts other than ``family_states``/``error_pair`` do not see
    ``n``; they inherit it from the ``family_states`` call that precedes them
    under the same sweep.
    """
    last_n = {}
    out = []
    for i, (name, _, _, parent, _, arg) in enumerate(spans):
        if parent is None or spans[parent][0] not in SWEEPS:
            continue
        if name in EXACT_ENGINES or name == "families.family_states":
            last_n[parent] = arg
        if name in EXACT_ENGINES or name in DENSE_PARTS:
            out.append((i, arg if arg is not None else last_n.get(parent)))
    return out


def layer_metrics(spans):
    """Per-layer counts and times (seconds) from dumped spans."""
    pieces = _self_intervals(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def members(names):
        return [i for n in names for i in by_name.get(n, ())]

    m = {}
    engine = _engine_spans(spans)
    m["hyptest.engine_calls"] = sum(
        1 for i, _ in engine
        if spans[i][0] in EXACT_ENGINES or spans[i][0] == "families.family_states")
    m["hyptest.engine_s"] = _union((spans[i][1], spans[i][2]) for i, _ in engine)
    for n in BLOCK_SIZES:
        m[f"hyptest.engine_s.n{n}"] = _union(
            (spans[i][1], spans[i][2]) for i, k in engine if k == n)
    for metric, names in SELF_TIMES.items():
        m[metric] = _union(p for i in members(names) for p in pieces[i])
    for metric, names in COUNTS.items():
        m[metric] = len(members(names))

    dims = [(shape[-1], math.prod(shape[:-2])) for shape in
            (spans[i][5] for i in members(EIGH)) if shape]
    m["operators.eigh_max_dim"] = max((d for d, _ in dims), default=0)
    m["operators.eigh_dim3_sum"] = sum(b * d**3 for d, b in dims)
    anti = m["hoeffding.anti_calls"]
    m["hoeffding.rate_evals_per_anti"] = m["hoeffding.rate_evals"] / anti if anti else 0.0
    distinct = {spans[i][5] for i in by_name.get("families.family_states", ())}
    m["families.states_per_distinct_n"] = (
        m["families.states_calls"] / len(distinct) if distinct else 0.0)
    # what the layers account for: time inside some traced call, less the
    # sweeps' own time (``hyptest.sweep_s``), which wraps nearly the whole run
    m["trace.covered_s"] = _union(
        p for i, s in enumerate(spans) if s[0] not in SWEEPS for p in pieces[i])
    m["trace.spans"] = len(spans)
    return m
