"""Projective covers, minimal presentations and resolutions, injective
envelopes, Ext groups and surjectivity of Hom along a presentation.

The injective side is not computed on its own: the injective envelope of
M is the dual of the projective cover of D M over the opposite algebra.

All covers are minimal (kernels land in the radical), so projective
dimension reads off as the index of the last nonzero resolution term.
Possibly-infinite dimensions are reported as undecided at the bound,
never coerced to a number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .reps import (
    Algebra,
    Morphism,
    Representation,
    direct_sum,
    dual,
    hom_dim,
    hom_from_projective,
    hom_space,
    kernel,
    morphism_out_of_sum,
    projective_module,
    radical_spans,
    zero_morphism,
    zero_representation,
)


class BoundExceededError(RuntimeError):
    """A resolution-bound question could not be decided at the bound."""


def default_resolution_bound(algebra: Algebra) -> int:
    return 2 * algebra.dim + 4


def projective_cover(m: Representation) -> Morphism:
    """Minimal epimorphism P -> M with P = sum of P(v) over top M."""
    cached = m._cache.get("projective_cover")
    if cached is not None:
        return cached
    alg = m.algebra
    parts_data: list[tuple[str, np.ndarray]] = []
    for v, rad in zip(alg.vertices, radical_spans(m)):
        comp, _ = linalg.basis_complement(rad)
        parts_data.extend((v, x) for x in comp.T)
    projs = [projective_module(alg, v) for v, _ in parts_data]
    parts = [hom_from_projective(alg, v, pv, m, x)
             for (v, x), pv in zip(parts_data, projs)]
    cover = morphism_out_of_sum(direct_sum(alg, projs), m, parts)
    m._cache["projective_cover"] = cover
    return cover


@dataclass
class ProjectivePresentation:
    """sigma: P1 -> P0 with cokernel T (via cok_projection: P0 -> T)."""

    p1: Representation
    p0: Representation
    sigma: Morphism
    cok_projection: Morphism


def minimal_presentation(m: Representation) -> ProjectivePresentation:
    """The first two terms of the minimal resolution of m."""
    res = minimal_resolution(m, 1)
    return ProjectivePresentation(
        p1=res.term(1), p0=res.terms[0], sigma=res.differential(1),
        cok_projection=res.augmentation,
    )


@dataclass
class Resolution:
    """Minimal projective resolution data, possibly truncated."""

    resolved: Representation
    terms: list[Representation]
    differentials: list[Morphism]  # differentials[i]: terms[i+1] -> terms[i]
    augmentation: Morphism  # terms[0] -> resolved
    # "terminated", "truncated" (stopped early) or "bound-exceeded"
    # (projective_dimension resolved to its bound without terminating)
    status: str
    length: int  # index of last nonzero term when terminated
    frontier: tuple[Representation, Morphism | None] | None = None

    def term(self, i: int) -> Representation:
        if i < len(self.terms):
            return self.terms[i]
        if self.status == "terminated":
            return zero_representation(self.resolved.algebra)
        raise BoundExceededError(
            f"resolution of {self.resolved!r} undecided beyond degree "
            f"{len(self.terms) - 1}"
        )

    def differential(self, i: int) -> Morphism:
        """d_i: term(i) -> term(i-1), i >= 1."""
        if i - 1 < len(self.differentials):
            return self.differentials[i - 1]
        return zero_morphism(self.term(i), self.term(i - 1))


def minimal_resolution(m: Representation, max_length: int) -> Resolution:
    """Iterated projective covers of syzygies up to max_length terms.

    The frontier is the module to cover next with its inclusion into the
    previous term; M itself has none, and its cover is the augmentation.
    """
    if max_length < 0:
        raise linalg.MalformedInputError("max_length must be >= 0")
    res: Resolution | None = m._cache.get("resolution")
    if res is None:
        res = Resolution(
            resolved=m, terms=[], differentials=[], augmentation=None,
            status="truncated", length=0, frontier=(m, None),
        )
        m._cache["resolution"] = res
    while res.status != "terminated" and len(res.terms) <= max_length:
        syzygy, incl = res.frontier
        cover = projective_cover(syzygy)
        if incl is None:
            res.augmentation = cover
        else:
            res.differentials.append(incl.compose(cover))
        res.terms.append(cover.source)
        next_kernel, next_incl = kernel(cover)
        if next_kernel.is_zero():
            res.status = "terminated"
            res.length = len(res.terms) - 1
            res.frontier = None
        else:
            res.frontier = (next_kernel, next_incl)
    return res


def projective_dimension(m: Representation,
                         max_length: int | None = None) -> int | None:
    """Exact pd when the minimal resolution terminates within the bound,
    None when undecided (possibly infinite)."""
    if m.is_zero():
        return 0
    if max_length is None:
        max_length = default_resolution_bound(m.algebra)
    res = minimal_resolution(m, max_length)
    if res.status == "terminated":
        return res.length
    res.status = "bound-exceeded"
    return None


def ext_dim(i: int, m: Representation, n: Representation) -> int:
    """dim Ext^i(M, N) from terms 0..i+1 of the minimal resolution of M."""
    if i < 0:
        raise linalg.MalformedInputError("degree must be >= 0")
    if m.algebra is not n.algebra:
        raise linalg.MalformedInputError("Ext across different algebras")
    if i == 0:
        return hom_dim(m, n)
    if m.is_zero() or n.is_zero():
        return 0
    res = minimal_resolution(m, i + 1)
    pi = res.term(i)
    if pi.is_zero():
        return 0
    h_i = hom_space(pi, n)
    if not h_i:
        return 0
    p = m.algebra.p
    d_next = res.differential(i + 1)
    out_cols = [f.compose(d_next).flatten() for f in h_i]
    rank_out = linalg.rank(np.stack(out_cols, axis=1), p) if out_cols else 0
    prev = res.term(i - 1)
    h_prev = hom_space(prev, n)
    d_i = res.differential(i)
    in_cols = [f.compose(d_i).flatten() for f in h_prev]
    rank_in = linalg.rank(np.stack(in_cols, axis=1), p) if in_cols else 0
    return len(h_i) - rank_out - rank_in


def respects_presentation(pres: ProjectivePresentation,
                          x: Representation) -> bool:
    """Is Hom(sigma, X): Hom(P0, X) -> Hom(P1, X) surjective?

    Membership test for the vanishing class attached to a projective
    presentation (the class D_sigma of the silting definition).
    """
    h1 = hom_space(pres.p1, x)
    if not h1:
        return True
    h0 = hom_space(pres.p0, x)
    if not h0:
        return False
    p = x.algebra.p
    images = np.stack([f.compose(pres.sigma).flatten() for f in h0], axis=1)
    return linalg.rank(images, p) == len(h1)


def injective_envelope(m: Representation) -> Morphism:
    """Essential monomorphism M -> E with E = sum of I(v) over soc M: the
    dual of the projective cover of D M, as D takes soc M to top D M."""
    cover = projective_cover(dual(m))
    return Morphism(m, dual(cover.source),
                    [f.T for f in cover.vertex_maps])


__all__ = [
    "BoundExceededError",
    "ProjectivePresentation",
    "Resolution",
    "default_resolution_bound",
    "ext_dim",
    "injective_envelope",
    "minimal_presentation",
    "minimal_resolution",
    "projective_cover",
    "projective_dimension",
    "respects_presentation",
]
