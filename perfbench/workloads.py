"""The four benchmark workloads and their correctness oracles.

A workload is built from a spec (its inputs) and the workload seed.  One
*pass* runs it once from fresh inputs: every algebra, corpus and
Workbench is built again, so no memo carries over between passes.  A
pass returns its timings, the rendered reports and what the oracles
need; ``check`` compares a pass against oracles that do not come from
the code path being timed (census counts from the literature, the
classified corpus, and invariants of the definitions).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

# --- specs ------------------------------------------------------------------
# Algebras are named by their shipped file stem; `factories` maps the stem to
# the zoo constructor that the shipped file serializes.


def factories(zoo):
    return {
        "a2": zoo.a2,
        "a3": lambda p=2: zoo.linear_an(3, p),
        "a4": lambda p=2: zoo.linear_an(4, p),
        "nakayama_a3": zoo.nakayama_a3,
        "nakayama_cycle2": zoo.cyclic_nakayama_2,
    }


# Full-size inputs.  Sweeps list (algebra, prime, max_summands); the census
# maps an algebra to its number of tilting modules (Catalan numbers for
# linear A_n); algebras with infinite global dimension must report skips.
FULL = {
    "verify-f2": {
        "kind": "verify",
        "inputs": [("a3", 2, None), ("nakayama_a3", 2, None),
                   ("nakayama_cycle2", 2, None), ("a4", 2, 3)],
        "tilting_census": {"a3": 5},
        "must_skip": ["nakayama_cycle2"],
    },
    "classify-f3": {
        "kind": "classify",
        "inputs": [("a4", 3, 4)],
        "tilting_census": {"a4": 14},
    },
    "corpus-brute": {
        "kind": "corpus",
        "inputs": ["a3", "a4", "nakayama_a3", "nakayama_cycle2"],
        "dim_bound": 5,
    },
    "query-mix": {
        "kind": "query",
        "algebras": ["a2", "a3", "a4", "nakayama_a3", "nakayama_cycle2"],
        "per_cell": 6,
        "may_be_undecided": ["nakayama_cycle2"],
    },
}

# Seconds-long versions on A2 that run every workload kind.
SMOKE = {
    "verify-f2": {
        "kind": "verify",
        "inputs": [("a2", 2, None)],
        "tilting_census": {"a2": 2},
        "must_skip": [],
    },
    "classify-f3": {
        "kind": "classify",
        "inputs": [("a2", 3, None)],
        "tilting_census": {"a2": 2},
    },
    "corpus-brute": {
        "kind": "corpus",
        "inputs": ["a2"],
        "dim_bound": 3,
    },
    "query-mix": {
        "kind": "query",
        "algebras": ["a2"],
        "per_cell": 2,
        "may_be_undecided": [],
    },
}


@dataclass
class PassResult:
    """A pass's spans, as (start, end) ``time.perf_counter()`` readings,
    and what it reported.  The runner turns spans into seconds."""
    wall: tuple[float, float]
    setup: list[tuple[float, float]]
    sweep: list[tuple[float, float]]
    requests: list[tuple[float, float]]
    report: str
    reported: int = 0
    undecided: int = 0
    data: list = field(default_factory=list)


def _candidate_size(module: str) -> int:
    return 0 if module == "0" else module.count("+") + 1


# --- sweeps: verify-f2 and classify-f3 ----------------------------------------


class Sweep:
    """harness.verify_theorems or harness.classify over a list of algebras.

    One request is one algebra: load its Workbench, sweep it, render the
    report."""

    def __init__(self, siltlab, spec, seed):
        self.s = siltlab
        self.spec = spec
        self.factories = factories(siltlab.zoo)

    def run_pass(self) -> PassResult:
        harness = self.s.harness
        verify = self.spec["kind"] == "verify"
        setup, sweep, requests, texts, data = [], [], [], [], []
        reported = undecided = 0
        clock = time.perf_counter
        t_begin = clock()
        for name, p, max_summands in self.spec["inputs"]:
            t0 = clock()
            wb = harness.load_workbench(self.factories[name](p))
            t1 = clock()
            if verify:
                rows = harness.verify_theorems(wb, max_summands)
            else:
                rows = harness.classify(wb, max_summands)
            texts.append(harness.to_json_lines(rows))
            t2 = clock()
            setup.append((t0, t1))
            sweep.append((t1, t2))
            requests.append((t0, t2))
            data.append((name, len(wb.algebra.vertices), rows))
            r, u = (_verify_undecided if verify else _classify_undecided)(
                rows)
            reported += r
            undecided += u
        wall = (t_begin, clock())
        return PassResult(wall, setup, sweep, requests, "".join(texts),
                          reported, undecided, data)

    def setup_round(self) -> list[tuple[float, float]]:
        """Spans loading every input's Workbench, as a pass does."""
        harness = self.s.harness
        spans = []
        for name, p, _ in self.spec["inputs"]:
            t0 = time.perf_counter()
            harness.load_workbench(self.factories[name](p))
            spans.append((t0, time.perf_counter()))
        return spans

    def check(self, result: PassResult) -> list[tuple[str, bool]]:
        if self.spec["kind"] == "verify":
            return _check_verify(self.spec, result)
        return _check_classify(self.spec, result)


_PREDICATE_COLUMNS = ("sincere", "cosincere", "subfac", "facsub",
                      "presilting", "silting", "pretilting", "vanishing",
                      "self_orthogonal", "tilting")


def _is_undecided_skip(reason: str) -> bool:
    # Skips for an unmet hypothesis are answers; the others are not.
    return "not satisfied" not in reason


def _verify_undecided(rows) -> tuple[int, int]:
    reported = undecided = 0
    for row in rows:
        if row.get("kind") == "candidate":
            reported += len(row["verdicts"])
            undecided += sum(v is None for v in row["verdicts"].values())
        elif row.get("kind") == "theorem":
            reported += row["checked"]
            undecided += sum(count for reason, count
                             in row.get("skip_reasons", {}).items()
                             if _is_undecided_skip(reason))
    return reported, undecided


def _classify_undecided(rows) -> tuple[int, int]:
    reported = undecided = 0
    for row in rows[1:]:
        reported += len(_PREDICATE_COLUMNS)
        undecided += sum(row[k] is None for k in _PREDICATE_COLUMNS)
    return reported, undecided


def _check_verify(spec, result):
    checks = []
    for name, n_vertices, rows in result.data:
        verdict = rows[-1]
        theorems = [r for r in rows if r.get("kind") == "theorem"]
        candidates = [r for r in rows if r.get("kind") == "candidate"]
        checks.append((f"{name}: failed_total == 0",
                       verdict.get("kind") == "verdict"
                       and verdict["failed_total"] == 0
                       and all(t["failed"] == 0 for t in theorems)))
        checks.append((f"{name}: no route disagreement",
                       all("failures" not in t for t in theorems)
                       and all("route_disagreement" not in r for r in rows)))
        tilting = [r["module"] for r in candidates
                   if r["verdicts"].get("tilting")]
        checks.append((f"{name}: tilting modules have one summand per "
                       "vertex",
                       all(_candidate_size(m) == n_vertices
                           for m in tilting)))
        if name in spec["tilting_census"]:
            checks.append((f"{name}: tilting census "
                           f"{spec['tilting_census'][name]}",
                           len(tilting) == spec["tilting_census"][name]))
        if name in spec["must_skip"]:
            reasons = [reason for t in theorems
                       for reason in t.get("skip_reasons", {})
                       if _is_undecided_skip(reason)]
            checks.append((f"{name}: undecided instances are skipped "
                           "with reasons",
                           bool(reasons)
                           and any("undecided" in r for r in candidates)))
        else:
            checks.append((f"{name}: no undecided verdicts",
                           not any("undecided" in r for r in candidates)))
    return checks


def _check_classify(spec, result):
    checks = []
    for name, n_vertices, rows in result.data:
        body = rows[1:]
        checks.append((f"{name}: header row",
                       rows[0].get("kind") == "classification"))
        checks.append((f"{name}: no undecided rows",
                       all("undecided" not in r for r in body)
                       and all(r[k] is not None for r in body
                               for k in _PREDICATE_COLUMNS)))
        checks.append((f"{name}: no route disagreement",
                       all("route_disagreement" not in r for r in body)))
        tilting = [r for r in body if r["tilting"]]
        checks.append((f"{name}: tilting rows are sincere with one summand "
                       "per vertex",
                       all(r["summands"] == n_vertices and r["sincere"]
                           for r in tilting)))
        if name in spec["tilting_census"]:
            checks.append((f"{name}: tilting census "
                           f"{spec['tilting_census'][name]}",
                           len(tilting) == spec["tilting_census"][name]))
    return checks


# --- corpus-brute -------------------------------------------------------------


class CorpusBrute:
    """Brute-force corpus enumeration, rendered like `indec list`.

    One request is one algebra.  Its set-up is building the algebra; the
    enumeration and the rendering are its sweep (the corpus is what the
    request computes, not an input it starts from).  The oracle is the
    classified corpus of the same algebra, built once before timing
    starts: member by member the brute corpus must be isomorphic to it,
    with the same dimension vectors and the same names for the simple,
    projective and injective members.  Other members are named by construction (``M[2,3]`` for a
    classified interval module, ``X5`` for the brute one), so those names
    are not compared."""

    def __init__(self, siltlab, spec, seed):
        self.s = siltlab
        self.spec = spec
        self.factories = factories(siltlab.zoo)
        self.expected = {}
        for name in spec["inputs"]:
            self.expected[name] = siltlab.corpus.enumerate_indecomposables(
                self.factories[name]().build(), strategy="classified")

    def run_pass(self) -> PassResult:
        s = self.s
        bound = self.spec["dim_bound"]
        setup, sweep, requests, texts, data = [], [], [], [], []
        clock = time.perf_counter
        t_begin = clock()
        for name in self.spec["inputs"]:
            t0 = clock()
            algebra = self.factories[name]().build()
            t1 = clock()
            corpus = s.corpus.enumerate_indecomposables(
                algebra, strategy="brute", dim_bound=bound)
            rows = [{
                "schema_version": s.harness.SCHEMA_VERSION,
                "kind": "corpus",
                "strategy": "brute",
                "completeness": corpus.completeness,
                "size": len(corpus),
            }]
            for member_name, m in zip(corpus.names, corpus.members):
                rows.append({"kind": "member", "name": member_name,
                             "dims": list(m.dims),
                             "total_dim": m.total_dim})
            texts.append(s.harness.to_json_lines(rows))
            t2 = clock()
            setup.append((t0, t1))
            sweep.append((t1, t2))
            requests.append((t0, t2))
            data.append((name, corpus, rows))
        wall = (t_begin, clock())
        reported = sum(len(rows) - 1 for _, _, rows in data)
        return PassResult(wall, setup, sweep, requests, "".join(texts),
                          reported, 0, data)

    def setup_round(self) -> list[tuple[float, float]]:
        t0 = time.perf_counter()
        for name in self.spec["inputs"]:
            self.factories[name]().build()
        return [(t0, time.perf_counter())]

    def check(self, result: PassResult) -> list[tuple[str, bool]]:
        label = f"brute-force-up-to-dim-{self.spec['dim_bound']}"
        checks = []
        for name, corpus, rows in result.data:
            expected = self.expected[name]
            same = len(corpus.members) == len(expected.members) and all(
                _same_member(self.s, got, want)
                for got, want in zip(zip(corpus.names, corpus.members),
                                     zip(expected.names, expected.members)))
            checks.append((f"{name}: brute corpus equals the classified "
                           "corpus", same))
            checks.append((f"{name}: completeness label {label}",
                           rows[0]["completeness"] == label))
        return checks


def _same_member(siltlab, got, want) -> bool:
    (got_name, got_rep), (want_name, want_rep) = got, want
    standard = want_name[0] in "SPI" and want_name[1:].isalnum()
    return (got_rep.dims == want_rep.dims
            and (got_name == want_name or not standard)
            and siltlab.reps.is_isomorphic(
                _rebase(siltlab, got_rep, want_rep.algebra), want_rep))


def _rebase(siltlab, rep, algebra):
    """The same representation over another build of the same algebra."""
    return siltlab.reps.Representation(algebra, rep.dims, rep.arrow_maps)


# --- query-mix ----------------------------------------------------------------


class QueryMix:
    """One-shot `check`-style queries, each on a cold Workbench.

    The mix is stratified so that its cost hardly depends on the seed:
    every (algebra, predicate) cell gets the same number of queries, in
    complementary pairs.  The seed picks a uniformly random subset of the
    algebra's corpus as one candidate, its complement is the other, so
    each pair holds every corpus member exactly once.  The seed also
    shuffles the order in which the queries run."""

    def __init__(self, siltlab, spec, seed):
        self.s = siltlab
        self.spec = spec
        self.factories = factories(siltlab.zoo)
        rng = random.Random(seed)
        corpora = {}
        self.vertices = {}
        for name in spec["algebras"]:
            wb = siltlab.harness.load_workbench(self.factories[name]())
            corpora[name] = list(wb.names)
            self.vertices[name] = len(wb.algebra.vertices)
        queries = []
        for name, names in corpora.items():
            for predicate in sorted(siltlab.predicates.PREDICATES):
                for _ in range(spec["per_cell"] // 2):
                    chosen = [rng.random() < 0.5 for _ in names]
                    for side in (True, False):
                        members = [m for m, c in zip(names, chosen)
                                   if c == side]
                        queries.append((name, predicate, "+".join(members)))
        rng.shuffle(queries)
        self.queries = queries

    def run_pass(self) -> PassResult:
        s = self.s
        harness = s.harness
        predicates = s.predicates.PREDICATES
        undecidable = (s.homology.BoundExceededError,
                       s.reps.UndecidableError)
        setup, sweep, requests, texts, data = [], [], [], [], []
        undecided = 0
        clock = time.perf_counter
        t_begin = clock()
        for name, predicate, module in self.queries:
            t0 = clock()
            wb = harness.load_workbench(self.factories[name]())
            t1 = clock()
            cand = tuple(sorted(wb.corpus.index_of(m)
                                for m in module.split("+") if m))
            row = {"schema_version": harness.SCHEMA_VERSION,
                   "kind": "predicate"}
            try:
                row.update(predicates[predicate](wb, cand).row())
            except undecidable as exc:
                row.update({"module": wb.candidate_name(cand),
                            "predicate": predicate, "verdict": None,
                            "undecided": str(exc)})
                undecided += 1
            except Exception as exc:  # any other exception fails the query
                row.update({"module": wb.candidate_name(cand),
                            "predicate": predicate, "verdict": None,
                            "error": f"{type(exc).__name__}: {exc}"})
            texts.append(harness.to_json_lines(row))
            t2 = clock()
            setup.append((t0, t1))
            sweep.append((t1, t2))
            requests.append((t0, t2))
            data.append((name, row))
        wall = (t_begin, clock())
        return PassResult(wall, setup, sweep, requests, "".join(texts),
                          len(self.queries), undecided, data)

    def setup_round(self) -> list[tuple[float, float]]:
        t0 = time.perf_counter()
        for name, _, _ in self.queries:
            self.s.harness.load_workbench(self.factories[name]())
        return [(t0, time.perf_counter())]

    def check(self, result: PassResult) -> list[tuple[str, bool]]:
        allowed = set(self.spec["may_be_undecided"])
        checks = []
        for (name, predicate, module), (_, row) in zip(self.queries,
                                                       result.data):
            ok = "error" not in row
            if row["verdict"] is None:
                ok = ok and name in allowed
            elif predicate == "tilting" and row["verdict"]:
                ok = _candidate_size(row["module"]) == self.vertices[name]
            checks.append((f"{name} {predicate} {module or '0'}: "
                           f"{row.get('error', row['verdict'])}", ok))
        return checks


KINDS = {"verify": Sweep, "classify": Sweep, "corpus": CorpusBrute,
         "query": QueryMix}


def build(siltlab, name: str, seed: int, smoke: bool = False):
    spec = (SMOKE if smoke else FULL)[name]
    return KINDS[spec["kind"]](siltlab, spec, seed)
