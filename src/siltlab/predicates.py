"""The headline module predicates: sincere, cosincere, the Subfac/Facsub
conditions, presilting, silting, pretilting, tilting, the (T3)' vanishing
condition, and self-orthogonality.

Each predicate with more than one characterization evaluates every route
independently; a route disagreement raises instead of being reconciled,
because agreement of routes is exactly what the verification harness is
meant to certify.

Candidates are basic modules, encoded as sorted tuples of corpus indices.
A candidate is the direct sum of its summands and Hom(+T_i, -) is the sum
of the Hom(T_i, -), so the Workbench keeps per-summand tables (Hom, Ext,
pd, presentation class, trace, Subfac/Facsub) and every predicate below
reads them instead of building the direct sum: sincerity and cosincerity
test Hom(P_v, T_i) and Hom(T_i, I_v) per summand, the Subfac/Facsub routes
read one summand's table, the T123 coevaluation maps R into the sum of
the T_i^(d_i), and ``gen_eq_pres`` hands ``pres_contains`` the list of
summands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .corpus import Corpus
from .homology import (
    BoundExceededError,
    ProjectivePresentation,
    default_resolution_bound,
    ext_dim,
    minimal_presentation,
    projective_dimension,
    respects_presentation,
)
from .modclasses import (
    add_contains,
    left_perp0_of_gen,
    pres_contains,
    subfac_facsub,
    trace_spans,
)
from .reps import (
    Representation,
    cokernel,
    direct_sum,
    hom_space,
    injective_module,
    morphism_into_sum,
    projective_module,
    regular_module,
    simple_module,
)

Candidate = tuple[int, ...]


class RouteDisagreement(RuntimeError):
    """Two characterizations of one predicate returned different verdicts."""

    def __init__(self, predicate: str, candidate: str, verdicts: dict):
        self.predicate = predicate
        self.candidate = candidate
        self.verdicts = verdicts
        super().__init__(
            f"{predicate} routes disagree on {candidate}: {verdicts}"
        )


@dataclass
class PredicateReport:
    module_id: str
    predicate: str
    verdict: bool
    route: str
    witness: dict | None

    def row(self) -> dict:
        return {
            "module": self.module_id,
            "predicate": self.predicate,
            "verdict": self.verdict,
            "route": self.route,
            "witness": self.witness,
        }


class Workbench:
    """Memoized pairwise data for one algebra and its corpus."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.algebra = corpus.algebra
        self.members = corpus.members
        self.names = corpus.names
        self.resolution_bound = default_resolution_bound(self.algebra)
        self._hom: dict[tuple[int, int], int] = {}
        self._ext: dict[tuple[int, int, int], int] = {}
        self._pd: dict[int, int | None] = {}
        self._dsig: dict[tuple[int, int], bool] = {}
        self._pres: dict[int, ProjectivePresentation] = {}
        self._trace: dict[tuple[int, int], list[np.ndarray]] = {}
        self._subfac: dict[tuple[int, int], tuple[bool, bool]] = {}
        self._gen: dict[Candidate, tuple[int, ...]] = {}
        self._t3: dict[Candidate, bool] = {}

    # -- standard modules, built on first use --------------------------

    @cached_property
    def _projectives(self) -> list[Representation]:
        return [projective_module(self.algebra, v)
                for v in self.algebra.vertices]

    @cached_property
    def _injectives(self) -> list[Representation]:
        return [injective_module(self.algebra, v)
                for v in self.algebra.vertices]

    @cached_property
    def _regular(self) -> Representation:
        return regular_module(self.algebra)

    # -- candidates ----------------------------------------------------

    def all_candidates(self, max_summands: int | None = None):
        if max_summands is not None and max_summands < 0:
            raise linalg.MalformedInputError(
                f"max_summands must be at least 0, got {max_summands}")
        n = len(self.members)
        limit = n if max_summands is None else min(max_summands, n)
        out = [()]
        for size in range(1, limit + 1):
            out.extend(itertools.combinations(range(n), size))
        return out

    def candidate_name(self, candidate: Candidate) -> str:
        if not candidate:
            return "0"
        return "+".join(self.names[i] for i in candidate)

    # -- pair tables ---------------------------------------------------

    def hom(self, i: int, j: int) -> int:
        key = (i, j)
        if key not in self._hom:
            self._hom[key] = len(hom_space(self.members[i], self.members[j]))
        return self._hom[key]

    def ext(self, degree: int, i: int, j: int) -> int:
        key = (degree, i, j)
        if key not in self._ext:
            self._ext[key] = ext_dim(degree, self.members[i], self.members[j])
        return self._ext[key]

    def pd(self, i: int) -> int | None:
        if i not in self._pd:
            self._pd[i] = projective_dimension(
                self.members[i], self.resolution_bound)
        return self._pd[i]

    def dsig(self, i: int, j: int) -> bool:
        key = (i, j)
        if key not in self._dsig:
            if i not in self._pres:
                self._pres[i] = minimal_presentation(self.members[i])
            self._dsig[key] = respects_presentation(self._pres[i],
                                                    self.members[j])
        return self._dsig[key]

    def pair_trace(self, i: int, j: int) -> list[np.ndarray]:
        key = (i, j)
        if key not in self._trace:
            self._trace[key] = trace_spans(self.members[i], self.members[j])
        return self._trace[key]

    def subfac_facsub(self, i: int, vi: int) -> tuple[bool, bool]:
        """(in_subfac, in_facsub) of S at vertex index vi, witnessed by
        the first basis vector of summand i at that vertex."""
        key = (i, vi)
        if key not in self._subfac:
            s = simple_module(self.algebra, self.algebra.vertices[vi])
            in_subfac, in_facsub, _ = subfac_facsub(self.members[i], s)
            self._subfac[key] = (in_subfac, in_facsub)
        return self._subfac[key]

    # -- candidate-level derived data ----------------------------------

    def gen_member(self, candidate: Candidate, j: int) -> bool:
        traces = [self.pair_trace(i, j) for i in candidate]
        for vi, d in enumerate(self.members[j].dims):
            blocks = [trace[vi] for trace in traces]
            span = np.hstack(blocks) if blocks else linalg.zeros(d, 0)
            if linalg.rank(span, self.algebra.p) != d:
                return False
        return True

    def gen_set(self, candidate: Candidate) -> tuple[int, ...]:
        if candidate not in self._gen:
            self._gen[candidate] = tuple(
                j for j in range(len(self.members))
                if self.gen_member(candidate, j)
            )
        return self._gen[candidate]

    def t3(self, candidate: Candidate) -> bool:
        """Condition T3: the coevaluation R -> sum T_i^(d_i) is mono with
        cokernel in add T.  Memoized, as the cokernel is a new module
        whose Hom systems no table keeps."""
        if candidate not in self._t3:
            delta = _coevaluation(self, candidate)
            self._t3[candidate] = delta.is_mono() and add_contains(
                candidate, cokernel(delta)[0], self.corpus)
        return self._t3[candidate]

    def ext_from_candidate(self, degree: int, candidate: Candidate,
                           j: int) -> int:
        return sum(self.ext(degree, i, j) for i in candidate)

    def hom_from_candidate(self, candidate: Candidate, j: int) -> int:
        return sum(self.hom(i, j) for i in candidate)

    def candidate_pd(self, candidate: Candidate) -> int | None:
        """Max of summand pd's; None when any is undecided at the bound."""
        worst = 0
        for i in candidate:
            pdi = self.pd(i)
            if pdi is None:
                return None
            worst = max(worst, pdi)
        return worst

    def dsigma_set(self, candidate: Candidate) -> tuple[int, ...]:
        return tuple(
            j for j in range(len(self.members))
            if all(self.dsig(i, j) for i in candidate)
        )

    def perp1_set(self, candidate: Candidate) -> tuple[int, ...]:
        return tuple(
            j for j in range(len(self.members))
            if self.ext_from_candidate(1, candidate, j) == 0
        )

    def gen_eq_pres(self, candidate: Candidate) -> bool:
        """Does Gen T = Pres T hold over the corpus?"""
        summands = [self.members[i] for i in candidate]
        for j in self.gen_set(candidate):
            if not pres_contains(summands, self.members[j]).verdict:
                return False
        return True


def _report(wb, candidate, predicate, verdict, route, witness):
    return PredicateReport(
        module_id=wb.candidate_name(candidate),
        predicate=predicate,
        verdict=verdict,
        route=route,
        witness=witness,
    )


def _require_agreement(wb, candidate, predicate, verdicts: dict):
    if len(set(verdicts.values())) > 1:
        raise RouteDisagreement(
            predicate, wb.candidate_name(candidate), verdicts)


# ---------------------------------------------------------------------------
# sincerity family


def is_sincere(wb: Workbench, candidate: Candidate) -> PredicateReport:
    summands = [wb.members[i] for i in candidate]
    missing = None
    route_hom = True
    for vi, v in enumerate(wb.algebra.vertices):
        if not any(hom_space(wb._projectives[vi], t) for t in summands):
            route_hom = False
            missing = v
            break
    route_factors = all(sum(t.dims[vi] for t in summands) > 0
                        for vi in range(wb.algebra.n_vertices))
    perp = left_perp0_of_gen(wb.gen_set(candidate), wb.corpus)
    route_perp = not perp
    _require_agreement(wb, candidate, "sincere", {
        "hom_from_projectives": route_hom,
        "composition_factors": route_factors,
        "left_perp0_of_gen": route_perp,
    })
    witness = None
    if not route_hom:
        witness = {"vertex_without_support": missing,
                   "left_perp0_members": [wb.names[i] for i in perp]}
    return _report(wb, candidate, "sincere", route_hom,
                   "hom_from_projectives|composition_factors|left_perp0",
                   witness)


def is_cosincere(wb: Workbench, candidate: Candidate) -> PredicateReport:
    summands = [wb.members[i] for i in candidate]
    missing = None
    verdict = True
    for vi, v in enumerate(wb.algebra.vertices):
        if not any(hom_space(t, wb._injectives[vi]) for t in summands):
            verdict = False
            missing = v
            break
    witness = None if verdict else {"injective_without_maps": f"I{missing}"}
    return _report(wb, candidate, "cosincere", verdict,
                   "hom_into_injectives", witness)


def satisfies_subfac(wb: Workbench, candidate: Candidate) -> PredicateReport:
    return _subfac_or_facsub(wb, candidate, which="subfac")


def satisfies_facsub(wb: Workbench, candidate: Candidate) -> PredicateReport:
    return _subfac_or_facsub(wb, candidate, which="facsub")


def _subfac_or_facsub(wb, candidate, which):
    """The whole-sum witness x (the first basis vector at v of the block
    sum) lies in the first summand with v in its support; its cyclic
    submodule, that submodule's radical and the quotient by J.<x> stay
    inside that summand, so its table entry is the candidate's verdict."""
    verdict = True
    witness = None
    for vi, v in enumerate(wb.algebra.vertices):
        holder = next((i for i in candidate if wb.members[i].dims[vi]),
                      None)
        in_subfac, in_facsub = (
            wb.subfac_facsub(holder, vi) if holder is not None
            else (False, False)
        )
        direct = in_subfac if which == "subfac" else in_facsub
        factor = holder is not None
        _require_agreement(wb, candidate, which, {
            "direct_search": direct,
            "composition_factor": factor,
        })
        if not direct:
            verdict = False
            witness = {"missing_simple": f"S{v}"}
            break
    return _report(wb, candidate, which, verdict,
                   "direct_search|composition_factor", witness)


# ---------------------------------------------------------------------------
# silting family


def is_presilting(wb: Workbench, candidate: Candidate) -> PredicateReport:
    gen = wb.gen_set(candidate)
    ext_bad = None
    for j in gen:
        if wb.ext_from_candidate(1, candidate, j):
            ext_bad = j
            break
    route_ext = ext_bad is None
    dsig_bad = None
    for j in gen:
        if not all(wb.dsig(i, j) for i in candidate):
            dsig_bad = j
            break
    route_dsig = dsig_bad is None
    _require_agreement(wb, candidate, "presilting", {
        "gen_in_perp1": route_ext,
        "gen_in_presentation_class": route_dsig,
    })
    witness = None
    if not route_ext:
        witness = {"gen_member_with_ext1": wb.names[ext_bad]}
    return _report(wb, candidate, "presilting", route_ext,
                   "gen_in_perp1|gen_in_presentation_class", witness)


def is_silting(wb: Workbench, candidate: Candidate) -> PredicateReport:
    if wb.corpus.completeness.startswith("brute-force"):
        bound_note = wb.corpus.completeness
    else:
        bound_note = None
    gen = set(wb.gen_set(candidate))
    dsig = set(wb.dsigma_set(candidate))
    verdict = gen == dsig
    witness = None
    if not verdict:
        witness = {
            "in_dsigma_not_gen": sorted(wb.names[j] for j in dsig - gen),
            "in_gen_not_dsigma": sorted(wb.names[j] for j in gen - dsig),
        }
    if bound_note:
        witness = (witness or {}) | {"corpus": bound_note}
    return _report(wb, candidate, "silting", verdict,
                   "gen_equals_presentation_class", witness)


def _decided_pd(wb: Workbench, candidate: Candidate) -> int:
    """pd T; raises when it is undecided at the bound.  The message is
    part of the classify and verify-theorems reports."""
    pd = wb.candidate_pd(candidate)
    if pd is None:
        raise BoundExceededError(
            f"projective dimension of {wb.candidate_name(candidate)} "
            f"undecided at bound {wb.resolution_bound}"
        )
    return pd


def _pd_and_self_ext1(wb: Workbench, candidate: Candidate):
    """(pd T, dim Ext^1(T, T)), the data of conditions T1 (pd <= 1) and
    T2 (no self-extensions); raises when pd is undecided at the bound."""
    pd = _decided_pd(wb, candidate)
    return pd, sum(wb.ext(1, i, j) for i in candidate for j in candidate)


def is_pretilting(wb: Workbench, candidate: Candidate) -> PredicateReport:
    pd, self_ext = _pd_and_self_ext1(wb, candidate)
    verdict = pd <= 1 and self_ext == 0
    witness = {"pd": pd, "ext1_self": self_ext} if not verdict else None
    return _report(wb, candidate, "pretilting", verdict,
                   "pd_and_self_ext1", witness)


def vanishing_t3prime(wb: Workbench, candidate: Candidate) -> PredicateReport:
    witness_idx = None
    for j in range(len(wb.members)):
        if (wb.hom_from_candidate(candidate, j) == 0
                and wb.ext_from_candidate(1, candidate, j) == 0):
            witness_idx = j
            break
    verdict = witness_idx is None
    witness = (None if verdict
               else {"nonzero_member_in_perp01": wb.names[witness_idx]})
    return _report(wb, candidate, "vanishing", verdict,
                   "corpus_scan_perp01", witness)


def _coevaluation(wb: Workbench, candidate: Candidate):
    """Map R -> sum of T_i^(d_i) over the bases of the Hom(R, T_i).

    The canonical R -> T^d over a basis of Hom(R, T) = sum Hom(R, T_i)
    is, after a change of basis, this map plus copies of the T_i it
    misses; those lie in add T, so both cokernels are in add T together.
    """
    r = wb._regular
    bases = [hom_space(r, wb.members[i]) for i in candidate]
    total = direct_sum(wb.algebra, [wb.members[i] for i in candidate],
                       [len(b) for b in bases])
    return morphism_into_sum(r, total, [f for b in bases for f in b])


def is_tilting(wb: Workbench, candidate: Candidate,
               routes: tuple[str, ...] = ("definition", "T123", "vanishing"),
               ) -> PredicateReport:
    verdicts: dict[str, bool] = {}
    witness: dict = {}
    if "definition" in routes:
        gen = set(wb.gen_set(candidate))
        perp1 = set(wb.perp1_set(candidate))
        verdicts["definition"] = gen == perp1
        if gen != perp1:
            witness["perp1_not_gen"] = sorted(
                wb.names[j] for j in perp1 - gen)
    if "T123" in routes or "vanishing" in routes:
        pd, self_ext = _pd_and_self_ext1(wb, candidate)
        t1, t2 = pd <= 1, self_ext == 0
    if "T123" in routes:
        verdicts["T123"] = t1 and t2 and wb.t3(candidate)
    if "vanishing" in routes:
        t3p = vanishing_t3prime(wb, candidate)
        verdicts["vanishing"] = t1 and t2 and t3p.verdict
        if not t3p.verdict and t3p.witness:
            witness.update(t3p.witness)
    _require_agreement(wb, candidate, "tilting", verdicts)
    verdict = next(iter(verdicts.values()))
    return _report(wb, candidate, "tilting", verdict,
                   "|".join(routes), witness or None)


def is_self_orthogonal(wb: Workbench, candidate: Candidate) -> PredicateReport:
    pd = _decided_pd(wb, candidate)
    witness = None
    verdict = True
    for degree in range(1, pd + 1):
        for i in candidate:
            for j in candidate:
                dim = wb.ext(degree, i, j)
                if dim:
                    verdict = False
                    witness = {
                        "degree": degree,
                        "source": wb.names[i],
                        "target": wb.names[j],
                        "ext_dim": dim,
                    }
                    break
            if not verdict:
                break
        if not verdict:
            break
    return _report(wb, candidate, "self_orthogonal", verdict,
                   f"ext_self_up_to_pd_{pd}", witness)


PREDICATES = {
    "sincere": is_sincere,
    "cosincere": is_cosincere,
    "subfac": satisfies_subfac,
    "facsub": satisfies_facsub,
    "presilting": is_presilting,
    "silting": is_silting,
    "pretilting": is_pretilting,
    "tilting": is_tilting,
    "vanishing": vanishing_t3prime,
    "self-orthogonal": is_self_orthogonal,
}


__all__ = [
    "Candidate",
    "PREDICATES",
    "PredicateReport",
    "RouteDisagreement",
    "Workbench",
    "is_cosincere",
    "is_presilting",
    "is_pretilting",
    "is_self_orthogonal",
    "is_silting",
    "is_sincere",
    "is_tilting",
    "satisfies_facsub",
    "satisfies_subfac",
    "vanishing_t3prime",
]
