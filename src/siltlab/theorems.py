"""Exhaustive verification of the characterization theorems over a corpus.

Every check runs over every basic candidate (a subset of the corpus) and
is a biconditional or implication between predicate verdicts.  A failed
instance carries a machine-rerunnable witness; candidates on which a
hypothesis cannot be decided at the resolution bound are counted as
skipped with a reason, never as passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .homology import BoundExceededError
from .predicates import (
    Candidate,
    RouteDisagreement,
    Workbench,
    is_cosincere,
    is_presilting,
    is_pretilting,
    is_self_orthogonal,
    is_silting,
    is_sincere,
    is_tilting,
    satisfies_facsub,
    satisfies_subfac,
    vanishing_t3prime,
)
from .reps import UndecidableError


@dataclass
class CandidateEvaluation:
    name: str
    verdicts: dict[str, bool | None]
    reasons: dict[str, str] = field(default_factory=dict)
    disagreement: str | None = None


def evaluate_candidate(wb: Workbench, cand: Candidate) -> CandidateEvaluation:
    name = wb.candidate_name(cand)
    verdicts: dict[str, bool | None] = {}
    reasons: dict[str, str] = {}

    def run(label, fn, *args, **kwargs):
        try:
            verdicts[label] = fn(wb, cand, *args, **kwargs).verdict
        except BoundExceededError as exc:
            verdicts[label] = None
            reasons[label] = str(exc)

    try:
        run("sincere", is_sincere)
        run("cosincere", is_cosincere)
        run("subfac", satisfies_subfac)
        run("facsub", satisfies_facsub)
        run("presilting", is_presilting)
        run("silting", is_silting)
        run("pretilting", is_pretilting)
        run("vanishing", vanishing_t3prime)
        run("self_orthogonal", is_self_orthogonal)
        try:
            verdicts["tilting"] = is_tilting(wb, cand).verdict
            verdicts["tilting_routes_agreed"] = True
        except BoundExceededError as exc:
            # pd undecided: the definition route Gen T = T-perp1 remains
            # available; the T1-dependent routes are recorded as skipped
            verdicts["tilting"] = is_tilting(
                wb, cand, routes=("definition",)).verdict
            verdicts["tilting_routes_agreed"] = None
            reasons["tilting_routes"] = str(exc)
    except RouteDisagreement as exc:
        return CandidateEvaluation(name, verdicts, reasons,
                                   disagreement=str(exc))
    return CandidateEvaluation(name, verdicts, reasons)


@dataclass
class InstanceOutcome:
    status: str  # "pass" | "fail" | "skip"
    detail: str | None = None


def _biconditional(lhs, rhs, label_l, label_r):
    if lhs is None or rhs is None:
        return InstanceOutcome("skip", "hypothesis undecided at bound")
    if lhs == rhs:
        return InstanceOutcome("pass")
    return InstanceOutcome(
        "fail", f"{label_l}={lhs} but {label_r}={rhs}")


def _implication(lhs, rhs, label_l, label_r):
    if lhs is None or rhs is None:
        return InstanceOutcome("skip", "hypothesis undecided at bound")
    if not lhs or rhs:
        return InstanceOutcome("pass")
    return InstanceOutcome(
        "fail", f"{label_l} holds but {label_r} fails")


def _gen_in_perp(wb: Workbench, cand: Candidate, degrees) -> bool:
    return all(
        wb.ext_from_candidate(d, cand, j) == 0
        for j in wb.gen_set(cand)
        for d in degrees
    )


def _gen_eq_pres(wb: Workbench, cand: Candidate) -> bool | None:
    try:
        return wb.gen_eq_pres(cand)
    except UndecidableError:
        return None


THEOREM_NAMES = [
    "lemma31_square",
    "vanishing_implies_sincere",
    "genpres_sincere_implies_vanishing",
    "sincere_silting_iff_presilting_vanishing",
    "sincere_pretilting_iff_gen_perp12",
    "sincere_presilting_pretilting_iff_gen_perp2",
    "tilting_iff_vanishing_gen_perp12",
    "tilting_iff_sincere_silting_gen_perp2",
    "selforth_sincere_silting_iff_tilting",
    "selforth_genpres_gen_in_high_perp",
    "route_agreement",
]


def check_candidate(wb: Workbench, cand: Candidate,
                    ev: CandidateEvaluation) -> dict[str, InstanceOutcome]:
    v = ev.verdicts
    out: dict[str, InstanceOutcome] = {}

    if ev.disagreement is not None:
        out["route_agreement"] = InstanceOutcome("fail", ev.disagreement)
        return out
    out["route_agreement"] = (
        InstanceOutcome("pass")
        if v.get("tilting_routes_agreed") else
        InstanceOutcome("skip", ev.reasons.get("tilting_routes",
                                               "routes unavailable"))
    )

    quad = [v["sincere"], v["cosincere"], v["subfac"], v["facsub"]]
    out["lemma31_square"] = (
        InstanceOutcome("pass") if len(set(quad)) == 1
        else InstanceOutcome("fail", f"(PT,TI,TS,ST)={quad}")
    )

    out["vanishing_implies_sincere"] = _implication(
        v["vanishing"], v["sincere"], "vanishing", "sincere")

    gen_pres = _gen_eq_pres(wb, cand)
    if gen_pres is None:
        out["genpres_sincere_implies_vanishing"] = InstanceOutcome(
            "skip", "Gen=Pres undecidable within the fallback cap")
    else:
        out["genpres_sincere_implies_vanishing"] = _implication(
            gen_pres and v["sincere"], v["vanishing"],
            "GenT=PresT and sincere", "vanishing")

    lhs = v["sincere"] and v["silting"]
    rhs = v["presilting"] and v["vanishing"]
    out["sincere_silting_iff_presilting_vanishing"] = _biconditional(
        lhs, rhs, "sincere+silting", "presilting+vanishing")

    perp12 = _gen_in_perp(wb, cand, (1, 2))
    perp2 = _gen_in_perp(wb, cand, (2,))
    if v["sincere"]:
        out["sincere_pretilting_iff_gen_perp12"] = _biconditional(
            v["pretilting"], perp12, "pretilting", "Gen in perp{1,2}")
    else:
        out["sincere_pretilting_iff_gen_perp12"] = InstanceOutcome(
            "skip", "hypothesis (sincere) not satisfied")
    if v["sincere"] and v["presilting"]:
        out["sincere_presilting_pretilting_iff_gen_perp2"] = _biconditional(
            v["pretilting"], perp2, "pretilting", "Gen in perp2")
    else:
        out["sincere_presilting_pretilting_iff_gen_perp2"] = InstanceOutcome(
            "skip", "hypothesis (sincere presilting) not satisfied")

    out["tilting_iff_vanishing_gen_perp12"] = _biconditional(
        v["tilting"], v["vanishing"] and perp12,
        "tilting", "vanishing and Gen in perp{1,2}")

    out["tilting_iff_sincere_silting_gen_perp2"] = _biconditional(
        v["tilting"], v["sincere"] and v["silting"] and perp2,
        "tilting", "sincere silting with Gen in perp2")

    pd = wb.candidate_pd(cand)
    if v["sincere"] and v["silting"]:
        if pd is None:
            out["selforth_sincere_silting_iff_tilting"] = InstanceOutcome(
                "skip", "pd undecided at bound")
        else:
            out["selforth_sincere_silting_iff_tilting"] = _biconditional(
                v["self_orthogonal"], v["tilting"],
                "self-orthogonal", "tilting")
    else:
        out["selforth_sincere_silting_iff_tilting"] = InstanceOutcome(
            "skip", "hypothesis (sincere silting) not satisfied")

    if v["self_orthogonal"] and pd is not None and gen_pres:
        out["selforth_genpres_gen_in_high_perp"] = (
            InstanceOutcome("pass")
            if _gen_in_perp(wb, cand, range(1, pd + 1))
            else InstanceOutcome("fail",
                                 "Gen member with Ext^i(T,-) nonzero")
        )
    elif gen_pres is None and v["self_orthogonal"] and pd is not None:
        out["selforth_genpres_gen_in_high_perp"] = InstanceOutcome(
            "skip", "Gen=Pres undecidable within the fallback cap")
    else:
        out["selforth_genpres_gen_in_high_perp"] = InstanceOutcome(
            "skip", "hypothesis not satisfied")

    return out


__all__ = [
    "CandidateEvaluation",
    "InstanceOutcome",
    "THEOREM_NAMES",
    "check_candidate",
    "evaluate_candidate",
]
