"""Membership in Gen T, Pres T, Add T, perpendicular classes, the torsion
decomposition along the trace, and the Subfac/Facsub conditions.

All quantifiers over modules are evaluated in finite-dimensional
semantics: a membership claim about "all modules" means all modules whose
indecomposable summands lie in the supplied corpus.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .corpus import Corpus, decompose
from .homology import ext_dim
from .reps import (
    Representation,
    UndecidableError,
    coefficient_vectors,
    combination,
    hom_space,
    quotient_representation,
    radical_of_spans,
    span_closure,
    sub_representation,
)


@dataclass
class MembershipWitness:
    verdict: bool
    witness: dict | None = None

    def __bool__(self):
        return self.verdict


# ---------------------------------------------------------------------------
# trace and Gen


def trace_spans(t: Representation, m: Representation) -> list[np.ndarray]:
    """Per-vertex spans of the trace submodule t_T(M)."""
    alg = m.algebra
    basis = hom_space(t, m)
    spans = [linalg.zeros(d, 0) for d in m.dims]
    for f in basis:
        spans = [np.hstack([s, mat])
                 for s, mat in zip(spans, f.vertex_maps)]
    return [linalg.column_space_basis(s, alg.p) for s in spans]


def gen_contains(t: Representation, m: Representation) -> bool:
    spans = trace_spans(t, m)
    return all(s.shape[1] == d for s, d in zip(spans, m.dims))


# ---------------------------------------------------------------------------
# Pres


# The Pres fallback tries all p**(d*r) coefficient matrices iff they number
# at most this; beyond it, it refuses.
SEARCH_CAP = 1 << 16


def _column_space_signatures(d: int, r: int, p: int):
    """Full-column-rank coefficient matrices d x r, one per column space."""
    seen: set[bytes] = set()
    for flat in coefficient_vectors(d * r, p):
        c = np.array(flat, dtype=np.int64).reshape(d, r)
        if linalg.rank(c, p) != r:
            continue
        key = linalg.column_space_basis(c, p).tobytes()
        if key in seen:
            continue
        seen.add(key)
        yield c


def _evaluation(components, m: Representation) -> list[np.ndarray]:
    """Vertex maps of (phi_k): T0 = sum_k T_(i_k) -> M."""
    return [np.hstack([linalg.zeros(d, 0)]
                      + [phi.vertex_maps[vi] for _, phi in components])
            for vi, d in enumerate(m.dims)]


def _is_epi(components, m: Representation) -> bool:
    p = m.algebra.p
    return all(linalg.rank(e, p) == d
               for e, d in zip(_evaluation(components, m), m.dims))


def _kernel_in_gen(summands: Sequence[Representation], components,
                   m: Representation) -> bool:
    """Is the kernel K of (phi_k): T0 = sum_k T_(i_k) -> M in Gen T?

    ``components`` lists pairs (i_k, phi_k) with phi_k in Hom(T_(i_k), M).
    Hom(T_i, -) is left exact, so Hom(T_i, K) is the kernel of
    g -> sum_k phi_k g_k on Hom(T_i, T0) = sum_k Hom(T_i, T_(i_k)), and the
    images of those g span the trace of T in K inside T0.  K lies in Gen T
    iff at every vertex that span has dimension dim T0_v - rank(phi_v).
    Neither T0 nor K is built.
    """
    p = m.algebra.p
    evaluation = _evaluation(components, m)
    targets = [summands[i] for i, _ in components]
    offsets = [[0, *itertools.accumulate(x.dims[vi] for x in targets)]
               for vi in range(len(m.dims))]
    traces: list[list[np.ndarray]] = [[] for _ in m.dims]
    for t in summands:
        homs = [(k, h) for k, target in enumerate(targets)
                for h in hom_space(t, target)]
        if not homs:
            continue
        # lifts[vi][n] is the n-th basis map of Hom(T_i, T0) at vertex vi
        lifts = []
        for vi, off in enumerate(offsets):
            g = np.zeros((len(homs), off[-1], t.dims[vi]), dtype=np.int64)
            for n, (k, h) in enumerate(homs):
                g[n, off[k]:off[k + 1]] = h.vertex_maps[vi]
            lifts.append(g)
        # column n of the system is phi o (n-th lift), flattened
        system = np.hstack([
            np.einsum("ma,hat->hmt", e, g).reshape(len(homs), -1)
            for e, g in zip(evaluation, lifts)]).T % p
        null = linalg.kernel(system, p)
        for g, span in zip(lifts, traces):
            images = np.einsum("hat,hn->ant", g, null)
            span.append(images.reshape(g.shape[1], -1 if g.shape[1] else 0)
                        % p)
    return all(
        linalg.rank(np.hstack([linalg.zeros(off[-1], 0), *spans]), p)
        == off[-1] - linalg.rank(e, p)
        for off, spans, e in zip(offsets, traces, evaluation))


def pres_contains(summands: Sequence[Representation],
                  m: Representation) -> MembershipWitness:
    """Is M the cokernel of a map between finite Add-T sums, for T the
    direct sum of ``summands``?

    Canonical route: the evaluation map T^d -> M over a basis of
    Hom(T, M) = sum Hom(T_i, M), d its dimension, with its kernel tested
    for Gen-membership.  After an automorphism of T^d that map is the sum
    of the basis maps of the Hom(T_i, M) plus copies of the T_i mapped by
    zero; those copies lie in Gen T, so only the former is tested.  When
    that fails, every column space of d x r coefficient matrices over the
    concatenated bases is tried for r < d (any Add-T presentation reduces
    to one of these by splitting off redundant copies; r = d is the
    canonical map again, so it is not retried), each column split into its
    nonzero per-summand parts.  Kernels are tested by left exactness
    (``_kernel_in_gen``), so no direct sum and no kernel module is built.
    """
    if m.is_zero():
        return MembershipWitness(True, {"route": "zero"})
    bases = [hom_space(t, m) for t in summands]
    canonical = [(i, f) for i, basis in enumerate(bases) for f in basis]
    if not _is_epi(canonical, m):
        return MembershipWitness(False, {"reason": "not in Gen T"})
    d = len(canonical)
    p = m.algebra.p
    if _kernel_in_gen(summands, canonical, m):
        return MembershipWitness(True, {"route": "canonical", "copies": d})
    splits = list(itertools.accumulate(len(b) for b in bases))[:-1]
    for r in range(1, d):
        if p ** (d * r) > SEARCH_CAP:
            raise UndecidableError(
                "Pres-membership fallback search space exceeds the cap"
            )
        for coeffs in _column_space_signatures(d, r, p):
            components = [
                (i, combination(basis, part))
                for col in coeffs.T
                for i, (basis, part) in enumerate(
                    zip(bases, np.split(col, splits)))
                if part.any()
            ]
            if not _is_epi(components, m):
                continue
            if _kernel_in_gen(summands, components, m):
                return MembershipWitness(
                    True, {"route": "fallback", "copies": r}
                )
    return MembershipWitness(
        False,
        {"reason": "no Add-T cover has Gen-T kernel",
         "copies_tried": d},
    )


# ---------------------------------------------------------------------------
# Add


def add_contains(t_summands: dict[int, int], m: Representation,
                 corpus: Corpus) -> bool:
    """Add-membership via Krull-Schmidt: every indecomposable summand of M
    must occur among T's summand indices."""
    if m.is_zero():
        return True
    dec = decompose(m, corpus)
    return all(idx in t_summands for idx in dec)


# ---------------------------------------------------------------------------
# perpendicular classes


def perp_contains(t: Representation, m: Representation,
                  degrees: frozenset[int] | set[int],
                  side: str = "right") -> MembershipWitness:
    """Right: Ext^i(T, M) = 0 for i in degrees; left: Ext^i(M, T) = 0."""
    if not degrees or any(i < 0 for i in degrees):
        raise linalg.MalformedInputError("degrees must be nonempty, >= 0")
    for i in sorted(degrees):
        dim = (ext_dim(i, t, m) if side == "right" else ext_dim(i, m, t))
        if dim:
            return MembershipWitness(
                False, {"failing_degree": i, "ext_dim": dim}
            )
    return MembershipWitness(True)


def left_perp0_of_gen(gen_indices: Sequence[int],
                      corpus: Corpus) -> list[int]:
    """Corpus indices X with Hom(X, G) = 0 for every G in Gen T, given the
    corpus indices of Gen T (for example ``Workbench.gen_set``)."""
    out = []
    for i, x in enumerate(corpus.members):
        if all(not hom_space(x, corpus.members[j]) for j in gen_indices):
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# torsion decomposition


def torsion_decompose(t: Representation, m: Representation,
                      presilting_verified: bool = False):
    """Canonical 0 -> t(M) -> M -> M/t(M) -> 0 along the trace.

    Returns a dict with the pieces, re-verified memberships, and a warning
    when the presilting precondition was not certified by the caller.
    """
    spans = trace_spans(t, m)
    sub, incl = sub_representation(m, spans)
    quot, proj = quotient_representation(m, spans)
    result = {
        "torsion": sub,
        "inclusion": incl,
        "quotient": quot,
        "projection": proj,
        "torsion_in_gen": gen_contains(t, sub),
        "quotient_hom_free": not hom_space(t, quot),
        "warning": None if presilting_verified else (
            "presilting precondition not verified; (Gen T, T^perp0) may "
            "fail to be a torsion pair"
        ),
    }
    return result


# ---------------------------------------------------------------------------
# Subfac / Facsub


def _simple_vertex(s: Representation) -> int:
    nonzero = [i for i, d in enumerate(s.dims) if d]
    if len(nonzero) != 1 or s.dims[nonzero[0]] != 1:
        raise linalg.MalformedInputError("module is not simple")
    if any(mat.any() for mat in s.arrow_maps):
        raise linalg.MalformedInputError("module is not simple")
    return nonzero[0]


def subfac_facsub(t: Representation, s: Representation):
    """(in_subfac, in_facsub, witnesses) for a simple module S.

    Subfac witness: quotient Y = T / (J . <x>) in which the image of x is
    a socle copy of S.  Facsub witness: the submodule generated by a
    single vector of T at S's vertex, whose top is S.  Both are verified
    before being reported.
    """
    alg = t.algebra
    vi = _simple_vertex(s)
    v = alg.vertices[vi]
    if t.dims[vi] == 0:
        return False, False, {"reason": f"S{v} is not a composition factor"}
    # witness generator: first standard basis vector at the vertex
    offset = sum(t.dims[:vi])
    x = np.zeros(t.total_dim, dtype=np.int64)
    x[offset] = 1
    # Facsub: the cyclic submodule U = <x> has top U / J.U = S(v)
    gen_spans = span_closure(t, [x])
    rad_of_cyclic = radical_of_spans(t, gen_spans)
    sub_dims = tuple(span.shape[1] for span in gen_spans)
    top_mults = [d - r.shape[1] for d, r in zip(sub_dims, rad_of_cyclic)]
    facsub_ok = (top_mults[vi] == 1
                 and all(mlt == 0 for i, mlt in enumerate(top_mults)
                         if i != vi))
    # Subfac: quotient by J . <x> keeps x alive and kills its radical
    quot, proj = quotient_representation(t, rad_of_cyclic)
    image_x = (proj.vertex_maps[vi] @ x[offset:offset + t.dims[vi]]) % alg.p
    socle_ok = bool(image_x.any())
    if socle_ok:
        # verify the image of x is killed by every arrow (socle element)
        q = alg.quiver
        for ai, arrow in enumerate(q.arrows):
            if arrow.source != v:
                continue
            if (quot.arrow_maps[ai] @ image_x % alg.p).any():
                socle_ok = False
                break
    witnesses = {
        "vertex": v,
        "facsub_submodule_dims": sub_dims,
        "subfac_quotient_dims": quot.dims,
    }
    return socle_ok, facsub_ok, witnesses


__all__ = [
    "MembershipWitness",
    "SEARCH_CAP",
    "add_contains",
    "gen_contains",
    "left_perp0_of_gen",
    "perp_contains",
    "pres_contains",
    "subfac_facsub",
    "torsion_decompose",
    "trace_spans",
]
