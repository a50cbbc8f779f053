"""Sweep orchestration and report assembly.

Reports are plain dicts serialized as JSON lines with sorted keys and a
schema_version; nothing time- or machine-dependent is included, so two
runs on the same input are byte-identical.  All "for all modules"
statements are made in finite-dimensional semantics: quantifiers range
over direct sums of the enumerated corpus, and the corpus completeness
label rides along in every report header.
"""

from __future__ import annotations

import json

from .algfile import ParsedAlgebra
from .corpus import enumerate_indecomposables
from .homology import projective_dimension
from .modclasses import perp_contains
from .predicates import Workbench
from .reps import (
    Representation,
    hom_dim,
    projective_module,
    radical_spans,
    sub_representation,
)
from .theorems import THEOREM_NAMES, check_candidate, evaluate_candidate
from .zoo import a2

SCHEMA_VERSION = 1
SEMANTICS_BANNER = (
    "finite-dimensional semantics: module quantifiers range over finite "
    "direct sums of the enumerated corpus"
)


def default_strategy(parsed: ParsedAlgebra) -> str:
    """Corpus strategy for a parsed algebra: the classified corpus for the
    families that have one, brute-force enumeration otherwise."""
    if parsed.family in ("hereditary-An", "nakayama"):
        return "classified"
    return "brute"


def load_workbench(parsed: ParsedAlgebra, strategy: str | None = None,
                   dim_bound: int = 6) -> Workbench:
    algebra = parsed.build()
    if strategy is None:
        strategy = default_strategy(parsed)
    corpus = enumerate_indecomposables(
        algebra, strategy=strategy, dim_bound=dim_bound)
    return Workbench(corpus)


def _header(wb: Workbench, kind: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "field": wb.algebra.p,
        "vertices": list(wb.algebra.vertices),
        "algebra_dim": wb.algebra.dim,
        "corpus": list(wb.names),
        "completeness": wb.corpus.completeness,
        "semantics": SEMANTICS_BANNER,
    }


# ---------------------------------------------------------------------------
# classify


def classify(wb: Workbench, max_summands: int | None = None) -> list[dict]:
    """One JSON-ready row per basic candidate, all predicates tabulated."""
    rows = [_header(wb, "classification")]
    for cand in wb.all_candidates(max_summands):
        ev = evaluate_candidate(wb, cand)
        row = {"module": ev.name, "summands": len(cand)}
        row.update({k: ev.verdicts.get(k) for k in (
            "sincere", "cosincere", "subfac", "facsub", "presilting",
            "silting", "pretilting", "vanishing", "self_orthogonal",
            "tilting",
        )})
        if ev.reasons:
            row["undecided"] = dict(sorted(ev.reasons.items()))
        if ev.disagreement:
            row["route_disagreement"] = ev.disagreement
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# verify-theorems


def verify_theorems(wb: Workbench,
                    max_summands: int | None = None) -> list[dict]:
    """Header row, per-candidate verdict rows, per-theorem summary rows.

    The final row carries failed_total; exit status convention is 0 iff
    failed_total == 0.
    """
    rows = [_header(wb, "theorem-report")]
    tallies = {name: {"checked": 0, "passed": 0, "failed": 0, "skipped": 0}
               for name in THEOREM_NAMES}
    failures: dict[str, list[dict]] = {name: [] for name in THEOREM_NAMES}
    skip_reasons: dict[str, dict[str, int]] = {name: {}
                                               for name in THEOREM_NAMES}
    for cand in wb.all_candidates(max_summands):
        ev = evaluate_candidate(wb, cand)
        outcomes = check_candidate(wb, cand, ev)
        row = {"kind": "candidate", "module": ev.name,
               "verdicts": {k: v for k, v in sorted(ev.verdicts.items())}}
        if ev.reasons:
            row["undecided"] = dict(sorted(ev.reasons.items()))
        rows.append(row)
        for name, outcome in outcomes.items():
            t = tallies[name]
            t["checked"] += 1
            if outcome.status == "pass":
                t["passed"] += 1
            elif outcome.status == "skip":
                t["skipped"] += 1
                reason = outcome.detail or "unspecified"
                skip_reasons[name][reason] = (
                    skip_reasons[name].get(reason, 0) + 1)
            else:
                t["failed"] += 1
                failures[name].append({
                    "module": ev.name,
                    "detail": outcome.detail,
                    "rerun": {"candidate": list(cand)},
                })
    failed_total = 0
    for name in THEOREM_NAMES:
        summary = {"kind": "theorem", "theorem": name}
        summary.update(tallies[name])
        if failures[name]:
            summary["failures"] = failures[name]
        if skip_reasons[name]:
            summary["skip_reasons"] = dict(sorted(skip_reasons[name].items()))
        failed_total += tallies[name]["failed"]
        rows.append(summary)
    rows.append({"kind": "verdict", "failed_total": failed_total,
                 "passed": failed_total == 0})
    return rows


# ---------------------------------------------------------------------------
# worked example


def layer_label(m: Representation) -> str:
    """Loewy-layer diagram of a uniserial module, e.g. '[2;1]'."""
    layers = []
    current = m
    while not current.is_zero():
        rad = radical_spans(current)
        layer = []
        for vi, v in enumerate(current.algebra.vertices):
            mult = current.dims[vi] - rad[vi].shape[1]
            layer.extend([v] * mult)
        layers.append(layer)
        current, _ = sub_representation(current, rad)
    if any(len(layer) != 1 for layer in layers):
        return "+".join(";".join(layer) for layer in layers)
    flat = [layer[0] for layer in layers]
    if len(flat) == 1:
        return flat[0]
    return "[" + ";".join(flat) + "]"


def reproduce_example(p: int = 2) -> dict:
    """The A2 worked example: T = P(2) is sincere pretilting, presilting,
    not silting and not tilting, witnessed by P(1) in T-perp{0,1}."""
    parsed = a2(p)
    wb = load_workbench(parsed)
    algebra = wb.algebra
    t_idx = wb.names.index("P2")
    cand = (t_idx,)
    t = wb.members[t_idx]
    p1 = projective_module(algebra, "1")
    ev = evaluate_candidate(wb, cand)
    witness = perp_contains(t, p1, {0, 1})
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "worked-example",
        "field": p,
        "corpus": [layer_label(m) for m in wb.members],
        "T": layer_label(t),
        "sincere": ev.verdicts["sincere"],
        "pd_T": projective_dimension(t),
        "ext1_T_T": wb.ext(1, t_idx, t_idx),
        "hom_T_P1": hom_dim(t, p1),
        "P1_nonzero": not p1.is_zero(),
        "P1_in_perp_0_to_1": witness.verdict,
        "pretilting": ev.verdicts["pretilting"],
        "presilting": ev.verdicts["presilting"],
        "silting": ev.verdicts["silting"],
        "tilting": ev.verdicts["tilting"],
    }


# ---------------------------------------------------------------------------
# rendering


def to_json_lines(rows) -> str:
    if isinstance(rows, dict):
        rows = [rows]
    return "\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n"


def to_table(rows) -> str:
    """Human-oriented fixed-width view of a row list."""
    if isinstance(rows, dict):
        rows = [rows]
    flat = []
    for row in rows:
        cells = {}
        for k, v in row.items():
            if isinstance(v, (dict, list)):
                cells[k] = json.dumps(v, sort_keys=True)
            else:
                cells[k] = str(v)
        flat.append(cells)
    keys: list[str] = []
    for cells in flat:
        for k in cells:
            if k not in keys:
                keys.append(k)
    widths = {k: max(len(k), *(len(c.get(k, "")) for c in flat))
              for k in keys}
    lines = ["  ".join(k.ljust(widths[k]) for k in keys)]
    lines.append("  ".join("-" * widths[k] for k in keys))
    for cells in flat:
        lines.append("  ".join(cells.get(k, "").ljust(widths[k])
                               for k in keys))
    return "\n".join(lines) + "\n"


__all__ = [
    "SCHEMA_VERSION",
    "SEMANTICS_BANNER",
    "classify",
    "default_strategy",
    "layer_label",
    "load_workbench",
    "reproduce_example",
    "to_json_lines",
    "to_table",
    "verify_theorems",
]
