"""Outside-in tracing of siltlab's layers.

The tracer wraps public functions of the library from outside: it
replaces each target with a timing wrapper in *every* ``siltlab`` module
that holds a reference to it (modules that did ``from .reps import
hom_space`` keep their own binding, and ``predicates.PREDICATES`` holds
the predicate functions in a dict), and it replaces the pair-table
methods on the ``Workbench`` class.  Nothing under ``src/`` is edited and
no private state of the library is read: whether a pair-table call was a
miss, or a ``hom_space`` call solved a system, is read from the spans
that ran below it.

Spans are aggregated as they close (calls, total time, self time), so the
tracer keeps one small record per wrapped function rather than one per
call.  A span's self time is its duration minus the time covered by the
wrapped calls directly below it.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# Functions wrapped in every siltlab module that binds them, as
# (module, attribute).  The metric prefix is "<module>.<attribute>".
FUNCTIONS = [
    ("linalg", "row_reduce"),
    ("linalg", "matmul"),
    ("reps", "hom_space"),
    ("reps", "direct_sum"),
    ("homology", "minimal_resolution"),
    ("homology", "ext_dim"),
    ("homology", "minimal_presentation"),
    ("modclasses", "pres_contains"),
    ("modclasses", "trace_spans"),
    ("modclasses", "subfac_facsub"),
    ("modclasses", "left_perp0_of_gen"),
    ("corpus", "enumerate_indecomposables"),
    ("corpus", "is_indecomposable"),
    ("corpus", "decompose"),
    ("predicates", "is_sincere"),
    ("predicates", "is_cosincere"),
    ("predicates", "satisfies_subfac"),
    ("predicates", "satisfies_facsub"),
    ("predicates", "is_presilting"),
    ("predicates", "is_silting"),
    ("predicates", "is_pretilting"),
    ("predicates", "is_tilting"),
    ("predicates", "vanishing_t3prime"),
    ("predicates", "is_self_orthogonal"),
    ("theorems", "evaluate_candidate"),
    ("theorems", "check_candidate"),
    ("harness", "load_workbench"),
    ("harness", "to_json_lines"),
]

# Workbench methods wrapped on the class.  The first five are the pair
# tables, whose misses are counted.
PAIR_TABLES = ["hom", "ext", "pd", "dsig", "pair_trace"]
METHODS = PAIR_TABLES + ["gen_eq_pres"]

# A pair-table call is a miss when one of these ran below it.
WORK_SPANS = frozenset({"linalg.row_reduce", "reps.hom_space",
                        "homology.ext_dim", "modclasses.trace_spans"})

# row_reduce inputs with at most this many cells count as small calls.
SMALL_CELLS = 16

PREDICATE_FUNCTIONS = [attr for mod, attr in FUNCTIONS
                       if mod == "predicates"]


def percentile(values, q):
    """The q-th percentile, 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "marked", "cells", "small",
                 "unknowns", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.marked = 0  # misses for pair tables, solved for hom_space
        self.cells = 0
        self.small = 0
        self.unknowns = 0
        self.durations = []


class Tracer:
    """Install with ``with Tracer(siltlab) as tracer:``; read ``metrics``."""

    def __init__(self, siltlab):
        self._siltlab = siltlab
        self._stats: dict[str, _Stat] = {}
        # frame: [child seconds, row_reduce ran below, work span ran below]
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- installation --------------------------------------------------

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "siltlab" or name.startswith("siltlab.")]
        for mod_name, attr in FUNCTIONS:
            home = sys.modules[f"siltlab.{mod_name}"]
            original = getattr(home, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for module in modules:
                self._rebind(module, original, wrapper)
        workbench = self._siltlab.predicates.Workbench
        for attr in METHODS:
            original = workbench.__dict__[attr]
            self._undo.append((setattr, workbench, attr, original))
            setattr(workbench, attr,
                    self._wrap(f"predicates.Workbench.{attr}", original))
        return self

    def _rebind(self, module, original, wrapper):
        for key, value in list(vars(module).items()):
            if value is original:
                self._undo.append((setattr, module, key, original))
                setattr(module, key, wrapper)
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in value.items():
                    if dvalue is original:
                        self._undo.append(
                            (dict.__setitem__, value, dkey, original))
                        value[dkey] = wrapper

    def __exit__(self, *exc):
        while self._undo:
            restore, target, key, original = self._undo.pop()
            restore(target, key, original)
        return False

    # -- spans ---------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self._stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter
        is_work = name in WORK_SPANS
        is_row_reduce = name == "linalg.row_reduce"
        is_hom_space = name == "reps.hom_space"
        is_pair_table = name.rsplit(".", 1)[-1] in PAIR_TABLES and (
            name.startswith("predicates.Workbench."))
        keep_durations = name == "theorems.evaluate_candidate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, False, False]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                if is_row_reduce:
                    shape = getattr(args[0], "shape", None)
                    if shape is None or len(shape) != 2:
                        rows = len(args[0])
                        cols = len(args[0][0]) if rows else 0
                    else:
                        rows, cols = shape
                    stat.cells += rows * cols
                    stat.small += rows * cols <= SMALL_CELLS
                elif is_hom_space and frame[1]:
                    m, n = args[0], args[1]
                    stat.marked += 1
                    stat.unknowns += sum(a * b for a, b in zip(m.dims, n.dims))
                elif is_pair_table and frame[2]:
                    stat.marked += 1
                if keep_durations:
                    stat.durations.append(elapsed)
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] = parent[1] or is_row_reduce or frame[1]
                    parent[2] = parent[2] or is_work or frame[2]

        return wrapper

    # -- metrics -------------------------------------------------------

    def calls(self, name: str) -> int:
        stat = self._stats.get(name)
        return stat.calls if stat else 0

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass layer metrics, as name -> (value, unit)."""
        s = self._stats
        out: dict[str, tuple[float, str]] = {}

        def count(name, value):
            out[name] = (value / passes, "count")

        def seconds(name, value):
            out[name] = (value / passes, "s")

        rr = s["linalg.row_reduce"]
        count("linalg.row_reduce.calls", rr.calls)
        seconds("linalg.row_reduce.self_s", rr.self_s)
        count("linalg.row_reduce.cells", rr.cells)
        count("linalg.row_reduce.small_calls", rr.small)
        mm = s["linalg.matmul"]
        count("linalg.matmul.calls", mm.calls)
        seconds("linalg.matmul.self_s", mm.self_s)
        hs = s["reps.hom_space"]
        count("reps.hom_space.calls", hs.calls)
        count("reps.hom_space.solved", hs.marked)
        out["reps.hom_space.reuse_ratio"] = (
            1 - hs.marked / hs.calls if hs.calls else 0.0, "ratio")
        count("reps.hom_space.unknowns", hs.unknowns)
        seconds("reps.hom_space.self_s", hs.self_s)
        for name in ("reps.direct_sum", "homology.minimal_resolution",
                     "homology.ext_dim", "homology.minimal_presentation",
                     "modclasses.pres_contains", "modclasses.trace_spans",
                     "modclasses.subfac_facsub",
                     "modclasses.left_perp0_of_gen"):
            count(f"{name}.calls", s[name].calls)
            seconds(f"{name}.total_s", s[name].total_s)
        for name in ("corpus.enumerate_indecomposables",
                     "corpus.is_indecomposable", "corpus.decompose"):
            count(f"{name}.calls", s[name].calls)
            seconds(f"{name}.self_s", s[name].self_s)
            seconds(f"{name}.total_s", s[name].total_s)
        table_calls = table_misses = 0
        for attr in PAIR_TABLES:
            stat = s[f"predicates.Workbench.{attr}"]
            count(f"predicates.Workbench.{attr}.calls", stat.calls)
            count(f"predicates.Workbench.{attr}.misses", stat.marked)
            table_calls += stat.calls
            table_misses += stat.marked
        out["predicates.Workbench.pair_table_hit_ratio"] = (
            1 - table_misses / table_calls if table_calls else 0.0, "ratio")
        seconds("predicates.Workbench.gen_eq_pres.total_s",
                s["predicates.Workbench.gen_eq_pres"].total_s)
        for attr in PREDICATE_FUNCTIONS:
            stat = s[f"predicates.{attr}"]
            count(f"predicates.{attr}.calls", stat.calls)
            seconds(f"predicates.{attr}.total_s", stat.total_s)
        ev = s["theorems.evaluate_candidate"]
        count("theorems.evaluate_candidate.calls", ev.calls)
        durations_ms = [d * 1e3 for d in ev.durations]
        out["theorems.evaluate_candidate.p50_ms"] = (
            percentile(durations_ms, 50), "ms")
        out["theorems.evaluate_candidate.p95_ms"] = (
            percentile(durations_ms, 95), "ms")
        seconds("theorems.check_candidate.total_s",
                s["theorems.check_candidate"].total_s)
        seconds("harness.load_workbench.total_s",
                s["harness.load_workbench"].total_s)
        seconds("harness.to_json_lines.total_s",
                s["harness.to_json_lines"].total_s)
        return out
