"""Projective covers, minimal presentations and resolutions, injective
envelopes, Ext groups and surjectivity of Hom along a presentation.

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
    factorize,
    hom_dim,
    hom_from_projective,
    hom_space,
    injective_layout,
    injective_module,
    projective_module,
    radical_spans,
    socle_spans,
    zero_morphism,
    zero_representation,
)


class BoundExceededError(RuntimeError):
    """A resolution-bound question could not be decided at the bound."""


def default_resolution_bound(algebra: Algebra) -> int:
    return 2 * algebra.dim + 4


def _complement_vectors(span: np.ndarray, dim: int, p: int) -> list[np.ndarray]:
    """Standard vectors extending the span's columns to a basis."""
    ech = linalg.row_reduce(span.T, p)
    pivots = set(ech.pivot_columns)
    out = []
    for c in range(dim):
        if c not in pivots:
            e = np.zeros(dim, dtype=np.int64)
            e[c] = 1
            out.append(e)
    return out


def _combine_into_sum(target: Representation, parts: list[Morphism],
                      total_source: Representation) -> Morphism:
    """Morphism from a direct sum, given the per-summand morphisms in
    direct_sum's expanded order."""
    nv = target.algebra.n_vertices
    maps = []
    for i in range(nv):
        cols = [f.vertex_maps[i] for f in parts]
        if cols:
            maps.append(np.hstack(cols))
        else:
            maps.append(linalg.zeros(target.dims[i], 0))
    return Morphism(total_source, target, maps)


def projective_cover(m: Representation) -> Morphism:
    """Minimal epimorphism P -> M with P = sum of P(v) over top M."""
    cached = m._cache.get("projective_cover")
    if cached is not None:
        return cached
    alg = m.algebra
    p = alg.p
    rad = radical_spans(m)
    parts_data: list[tuple[str, np.ndarray]] = []
    for vi, v in enumerate(alg.vertices):
        for x in _complement_vectors(rad[vi], m.dims[vi], p):
            parts_data.append((v, x))
    projs = [projective_module(alg, v) for v, _ in parts_data]
    total, _, _ = direct_sum(alg, projs)
    parts = [hom_from_projective(alg, v, pv, m, x)
             for (v, x), pv in zip(parts_data, projs)]
    cover = _combine_into_sum(m, parts, total)
    m._cache["projective_cover"] = cover
    return cover


@dataclass
class ProjectivePresentation:
    """sigma: P1 -> P0 with cokernel T (via cok_projection: P0 -> T)."""

    p1: Representation
    p0: Representation
    sigma: Morphism
    cokernel: Representation
    cok_projection: Morphism
    minimal: bool


def minimal_presentation(m: Representation) -> ProjectivePresentation:
    cached = m._cache.get("minimal_presentation")
    if cached is not None:
        return cached
    cover0 = projective_cover(m)
    parts = factorize(cover0)
    kernel, incl = parts["kernel"], parts["kernel_inclusion"]
    cover1 = projective_cover(kernel)
    sigma = incl.compose(cover1)
    pres = ProjectivePresentation(
        p1=cover1.source, p0=cover0.source, sigma=sigma,
        cokernel=m, cok_projection=cover0, minimal=True,
    )
    m._cache["minimal_presentation"] = pres
    return pres


@dataclass
class Resolution:
    """Minimal projective resolution data, possibly truncated."""

    resolved: Representation
    terms: list[Representation]
    differentials: list[Morphism]  # differentials[i]: terms[i+1] -> terms[i]
    augmentation: Morphism  # terms[0] -> resolved
    status: str  # "terminated" | "bound-exceeded"
    length: int  # index of last nonzero term when terminated
    frontier: tuple[Representation, Morphism] | None = None

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
    """Iterated projective covers of syzygies up to max_length terms."""
    if max_length < 0:
        raise linalg.MalformedInputError("max_length must be >= 0")
    res: Resolution | None = m._cache.get("resolution")
    if res is None:
        cover = projective_cover(m)
        res = Resolution(
            resolved=m, terms=[cover.source], differentials=[],
            augmentation=cover, status="bound-exceeded", length=0,
            frontier=None,
        )
        parts = factorize(cover)
        kernel, incl = parts["kernel"], parts["kernel_inclusion"]
        if kernel.is_zero():
            res.status = "terminated"
            res.length = 0
        else:
            res.frontier = (kernel, incl)
        m._cache["resolution"] = res
    while res.status != "terminated" and len(res.terms) <= max_length:
        kernel, incl = res.frontier
        cover = projective_cover(kernel)
        res.differentials.append(incl.compose(cover))
        res.terms.append(cover.source)
        parts = factorize(cover)
        next_kernel, next_incl = parts["kernel"], parts["kernel_inclusion"]
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
    return None


def ext_dim(i: int, m: Representation, n: Representation,
            max_length: int | None = None) -> int:
    """dim Ext^i(M, N) from the minimal resolution of M."""
    if i < 0:
        raise linalg.MalformedInputError("degree must be >= 0")
    if m.algebra is not n.algebra:
        raise linalg.MalformedInputError("Ext across different algebras")
    if i == 0:
        return hom_dim(m, n)
    if m.is_zero() or n.is_zero():
        return 0
    if max_length is None:
        max_length = max(default_resolution_bound(m.algebra), i + 1)
    if max_length < i + 1:
        max_length = i + 1
    res = minimal_resolution(m, max_length)
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
    """Essential monomorphism M -> E with E = sum of I(v) over soc M."""
    cached = m._cache.get("injective_envelope")
    if cached is not None:
        return cached
    alg = m.algebra
    p = alg.p
    soc = socle_spans(m)
    parts_data: list[tuple[str, np.ndarray]] = []
    for vi, v in enumerate(alg.vertices):
        basis = linalg.column_space_basis(soc[vi], p)
        s = basis.shape[1]
        if s == 0:
            continue
        comp_vecs = _complement_vectors(basis, m.dims[vi], p)
        comp = (np.stack(comp_vecs, axis=1) if comp_vecs
                else linalg.zeros(m.dims[vi], 0))
        change = np.hstack([basis, comp])
        inv = linalg.invert(change, p)
        for j in range(s):
            # functional dual to the j-th socle basis vector, vanishing on
            # the complement
            parts_data.append((v, inv[j, :]))
    injs = [injective_module(alg, v) for v, _ in parts_data]
    total, _, _ = direct_sum(alg, injs)
    parts = []
    for (v, lam), iv in zip(parts_data, injs):
        layout = injective_layout(alg, v)
        maps = []
        for ui, u in enumerate(alg.vertices):
            rows = []
            for path in layout[u]:
                rows.append((lam @ m.path_action(path)) % p)
            if rows:
                maps.append(np.stack(rows, axis=0))
            else:
                maps.append(linalg.zeros(0, m.dims[ui]))
        parts.append(Morphism(m, iv, maps))
    nv = alg.n_vertices
    maps = []
    for i in range(nv):
        blocks = [f.vertex_maps[i] for f in parts]
        if blocks:
            maps.append(np.vstack(blocks))
        else:
            maps.append(linalg.zeros(0, m.dims[i]))
    env = Morphism(m, total, maps)
    m._cache["injective_envelope"] = env
    return env


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
