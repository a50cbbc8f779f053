"""Projective covers, minimal presentations and resolutions, injective
envelopes, Ext groups and surjectivity of Hom along a presentation.

The injective side is not computed on its own: the injective envelope of
M is the dual of the projective cover of D M over the opposite algebra.

All covers are minimal (kernels land in the radical), so projective
dimension reads off as the index of the last nonzero resolution term.
Possibly-infinite dimensions are reported as undecided at the bound,
never coerced to a number.

A cover P -> M is onto, so dim ker = dim P - dim M at each vertex: a
resolution ends when the two dimension vectors agree, and its zero
kernel is never computed.  A syzygy's arrow matrices are the
coordinates of the arrows' images in canonical spans, read at the
spans' pivot rows, where each span is an identity block.

Each cover records the top vertex of each summand P(v) of its source.
Ext and D_sigma then solve no Hom system: Hom(P(v), N) = N_v by
f -> f(e_v) (Yoneda), so Hom(d, N) for a map d between two sums of
indecomposable projectives is a block matrix of path actions on N, and
Ext and D_sigma are ranks of such matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .reps import (
    Algebra,
    Morphism,
    Representation,
    dual,
    generator_images,
    hom_dim,
    kernel,
    projective_sum,
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
    return _cover(m)[0]


def _cover(m: Representation) -> tuple[Morphism, tuple[int, ...]]:
    """The projective cover of m with the top vertex (index) of each
    summand P(v) of its source, in summand order.

    The generators are the standard vectors completing rad M at each
    vertex, and the cover's vertex maps are their path images, written
    side by side; the source is the algebra's stored sum of P(v)."""
    cached = m._cache.get("projective_cover")
    if cached is not None:
        return cached
    tops: tuple[int, ...] = ()
    blocks = [[linalg.zeros(d, 0)] for d in m.dims]
    for vi, rad in enumerate(radical_spans(m)):
        if rad.shape[1] == m.dims[vi]:
            continue  # no generator at vi
        comp, _ = linalg.basis_complement(rad)
        tops += (vi,) * comp.shape[1]
        for block, images in zip(blocks, generator_images(m, vi, comp)):
            block.append(images)
    cover = Morphism(projective_sum(m.algebra, tops), m,
                     [np.hstack(block) for block in blocks])
    cached = m._cache["projective_cover"] = (cover, tops)
    return cached


@dataclass
class ProjectivePresentation:
    """sigma: P1 -> P0 with cokernel T (via cok_projection: P0 -> T)."""

    p1: Representation
    p0: Representation
    sigma: Morphism
    cok_projection: Morphism
    # top vertex indices of the summands P(v) of p1 and of p0
    tops1: tuple[int, ...]
    tops0: tuple[int, ...]


def minimal_presentation(m: Representation) -> ProjectivePresentation:
    """The first two terms of the minimal resolution of m."""
    res = minimal_resolution(m, 1)
    return ProjectivePresentation(
        p1=res.term(1), p0=res.terms[0], sigma=res.differential(1),
        cok_projection=res.augmentation, tops1=res.term_tops(1),
        tops0=res.tops[0],
    )


@dataclass
class Resolution:
    """Minimal projective resolution data, possibly truncated."""

    resolved: Representation
    terms: list[Representation]
    tops: list[tuple[int, ...]]  # top vertex indices of terms[i]'s summands
    differentials: list[Morphism]  # differentials[i]: terms[i+1] -> terms[i]
    augmentation: Morphism  # terms[0] -> resolved
    # "terminated", "truncated" (stopped early) or "bound-exceeded"
    # (projective_dimension resolved to its bound without terminating)
    status: str
    length: int  # index of last nonzero term when terminated
    frontier: tuple[Representation, Morphism | None] | None = None

    def _check_decided(self):
        """Past the last built term: raise unless the resolution ended."""
        if self.status != "terminated":
            raise BoundExceededError(
                f"resolution of {self.resolved!r} undecided beyond degree "
                f"{len(self.terms) - 1}"
            )

    @cached_property
    def _zero(self) -> Representation:
        """term(i) for every i past the end of a terminated resolution."""
        return zero_representation(self.resolved.algebra)

    @cached_property
    def _zero_differentials(self) -> tuple[Morphism, Morphism]:
        """differential(i) past the end: into the last term, then 0 -> 0."""
        return (zero_morphism(self._zero, self.terms[-1]),
                zero_morphism(self._zero, self._zero))

    def term(self, i: int) -> Representation:
        if i < len(self.terms):
            return self.terms[i]
        self._check_decided()
        return self._zero

    def term_tops(self, i: int) -> tuple[int, ...]:
        """The top vertex indices of term(i)'s summands P(v)."""
        if i < len(self.tops):
            return self.tops[i]
        self._check_decided()
        return ()

    def differential(self, i: int) -> Morphism:
        """d_i: term(i) -> term(i-1), i >= 1."""
        if i - 1 < len(self.differentials):
            return self.differentials[i - 1]
        self._check_decided()
        return self._zero_differentials[i > len(self.terms)]


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
            resolved=m, terms=[], tops=[], differentials=[],
            augmentation=None, status="truncated", length=0,
            frontier=(m, None),
        )
        m._cache["resolution"] = res
    while res.status != "terminated" and len(res.terms) <= max_length:
        syzygy, incl = res.frontier
        cover, tops = _cover(syzygy)
        if incl is None:
            res.augmentation = cover
        else:
            res.differentials.append(incl.compose(cover))
        res.terms.append(cover.source)
        res.tops.append(tops)
        # a cover is onto, so its kernel is zero when the dimensions agree
        if cover.source.dims == syzygy.dims:
            res.status = "terminated"
            res.length = len(res.terms) - 1
            res.frontier = None
        else:
            res.frontier = kernel(cover)
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


def _hom_matrix(d: Morphism, source_tops: tuple[int, ...],
                target_tops: tuple[int, ...],
                n: Representation) -> np.ndarray:
    """The matrix of Hom(d, N): f -> f.d, for d: sum_a P(u_a) ->
    sum_b P(v_b) a map between sums of indecomposable projectives with
    the given tops, on Hom(P(v), N) = N_v (f -> f(e_v), the Yoneda
    isomorphism) summand by summand.

    d(e_(u_a)) lies at vertex u_a of the target, and its part in summand
    b is the sum of c_pi pi over the basis paths pi: v_b -> u_a, so
    f.d sends e_(u_a) to the sum over b of the blocks
    sum_pi c_pi N_pi applied to f(e_(v_b))."""
    alg = n.algebra
    groups = alg.path_groups
    rows = [0, *itertools.accumulate(n.dims[u] for u in source_tops)]
    cols = [0, *itertools.accumulate(n.dims[v] for v in target_tops)]
    out = linalg.zeros(rows[-1], cols[-1])
    # where the next source summand starts at each vertex
    start = [0] * alg.n_vertices
    for a, u in enumerate(source_tops):
        image = d.vertex_maps[u][:, start[u]].tolist()
        start = [s + len(g) for s, g in zip(start, groups[u])]
        offset = 0  # where summand b starts at u in the target
        for b, v in enumerate(target_tops):
            paths = groups[v][u]
            block = sum(c * n.path_action(path) for c, (_, path)
                        in zip(image[offset:offset + len(paths)], paths)
                        if c)
            offset += len(paths)
            out[rows[a]:rows[a + 1], cols[b]:cols[b + 1]] = block % alg.p
    return out


def _hom_rank(res: Resolution, i: int, n: Representation) -> int:
    """rank Hom(d_i, N): Hom(term(i - 1), N) -> Hom(term(i), N)."""
    source, target = res.term_tops(i), res.term_tops(i - 1)
    if not source or not target:
        return 0
    mat = _hom_matrix(res.differential(i), source, target, n)
    return linalg.rank(mat, n.algebra.p) if mat.any() else 0


def ext_dim(i: int, m: Representation, n: Representation) -> int:
    """dim Ext^i(M, N) from terms 0..i+1 of the minimal resolution of M:
    dim Hom(P_i, N) - rank Hom(d_(i+1), N) - rank Hom(d_i, N), with
    Hom(P_i, N) the sum of N_v over the tops v of P_i."""
    if i < 0:
        raise linalg.MalformedInputError("degree must be >= 0")
    if m.algebra is not n.algebra:
        raise linalg.MalformedInputError("Ext across different algebras")
    if i == 0:
        return hom_dim(m, n)
    if m.is_zero() or n.is_zero():
        return 0
    res = minimal_resolution(m, i + 1)
    hom_i = sum(n.dims[v] for v in res.term_tops(i))
    if not hom_i:
        return 0
    return hom_i - _hom_rank(res, i + 1, n) - _hom_rank(res, i, n)


def respects_presentation(pres: ProjectivePresentation,
                          x: Representation) -> bool:
    """Is Hom(sigma, X): Hom(P0, X) -> Hom(P1, X) surjective, that is, is
    its rank the sum of X_v over the tops v of P1?

    Membership test for the vanishing class attached to a projective
    presentation (the class D_sigma of the silting definition).
    """
    hom_1 = sum(x.dims[v] for v in pres.tops1)
    if not hom_1:
        return True
    mat = _hom_matrix(pres.sigma, pres.tops1, pres.tops0, x)
    return bool(mat.any()) and linalg.rank(mat, x.algebra.p) == hom_1


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
