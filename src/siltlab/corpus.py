"""Enumeration of indecomposable modules and Krull-Schmidt bookkeeping.

Two strategies: a classified corpus for representation-finite families we
recognize (type-A hereditary quivers via interval modules, Nakayama
algebras via uniserial projective quotients), and a capped brute-force
sweep that enumerates all representations up to a total dimension and
deduplicates up to isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import MalformedInputError
from .pathalg import Algebra
from .reps import (
    Representation,
    _in_out_maps,
    _radical,
    _top_dim,
    hom_dim,
    is_indecomposable,
    is_isomorphic,
    projective_module,
    quotient_representation,
    radical_of_spans,
    relations_acting,
)


@dataclass
class Corpus:
    algebra: Algebra
    members: list[Representation]
    names: list[str]
    completeness: str  # "certified-by-classification" | "brute-force-up-to-dim-D"

    def __len__(self):
        return len(self.members)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown corpus member {name!r}") from None


# ---------------------------------------------------------------------------
# classified families


def _linear_order(algebra: Algebra) -> list[str] | None:
    """Vertex order of a type-A quiver (underlying graph a simple path),
    or None when the quiver is not of that shape."""
    q = algebra.quiver
    n = len(q.vertices)
    if len(q.arrows) != n - 1 or n == 0:
        return None
    deg = {v: 0 for v in q.vertices}
    nbr: dict[str, list[str]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        if a.source == a.target:
            return None
        deg[a.source] += 1
        deg[a.target] += 1
        nbr[a.source].append(a.target)
        nbr[a.target].append(a.source)
    ends = [v for v in q.vertices if deg[v] == 1]
    if n == 1:
        return list(q.vertices)
    if len(ends) != 2 or any(deg[v] > 2 for v in q.vertices):
        return None
    order = [min(ends)]
    while len(order) < n:
        nxt = [w for w in nbr[order[-1]] if w not in order]
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
    return order


def _interval_modules(algebra: Algebra) -> list[Representation]:
    order = _linear_order(algebra)
    if order is None or algebra.relations.relations:
        raise MalformedInputError(
            "classified hereditary-An strategy needs a relation-free "
            "type-A quiver"
        )
    q = algebra.quiver
    out = []
    n = len(order)
    for i in range(n):
        for j in range(i, n):
            window = set(order[i:j + 1])
            dims = [1 if v in window else 0 for v in q.vertices]
            maps = []
            for a in q.arrows:
                u = q.vertex_index(a.source)
                w = q.vertex_index(a.target)
                if a.source in window and a.target in window:
                    maps.append(linalg.identity(1))
                else:
                    maps.append(linalg.zeros(dims[w], dims[u]))
            out.append(Representation(algebra, dims, maps,
                                      name=f"M[{order[i]},{order[j]}]"))
    return out


def _nakayama_members(algebra: Algebra) -> list[Representation]:
    """Uniserial quotients P(v)/rad^k P(v), pairwise non-isomorphic: their
    tops or their lengths differ."""
    out: list[Representation] = []
    for v in algebra.vertices:
        pv = projective_module(algebra, v)
        length = pv.total_dim  # uniserial, so radical length = dimension
        spans = [linalg.identity(d) for d in pv.dims]
        for k in range(1, length + 1):
            spans = radical_of_spans(pv, spans)  # J^k . P(v)
            quot, _ = quotient_representation(pv, spans)
            quot.name = f"{v}|{k}"
            out.append(quot)
    return out


# ---------------------------------------------------------------------------
# brute force


# Rows of one block of matrix tuples: the low base-p digits of a block
# run over every tuple of its last l entries, with p**l at most this.
_BLOCK_ROWS = 1024


def _digit_table(p: int, width: int) -> np.ndarray:
    """Every tuple in range(p)**width as the rows of an int64 array, in
    itertools.product order; p**width is at most _BLOCK_ROWS."""
    place = p ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return np.arange(p ** width, dtype=np.int64)[:, None] // place % p


def _all_representations(algebra: Algebra, dim_bound: int):
    """Every representation up to total dimension dim_bound, in
    itertools.product order of the arrow-matrix entries.

    The tuples of one dimension vector are built in blocks: the high
    digits come from itertools.product, and the last l entries run over a
    digit table of p**l rows.  Every relation is evaluated on the whole
    block at once, and only the rows where all of them act as zero become
    Representations."""
    p = algebra.p
    nv = algebra.n_vertices
    low_max = 0
    while p ** (low_max + 1) <= _BLOCK_ROWS:
        low_max += 1
    table = _digit_table(p, low_max)
    for total in range(1, dim_bound + 1):
        for dims in itertools.product(range(total + 1), repeat=nv):
            if sum(dims) != total:
                continue
            shapes = [(dims[w], dims[u]) for u, w in algebra.arrow_ends]
            n = sum(r * c for r, c in shapes)
            low = min(low_max, n)
            # product order of the last `low` entries: the tail of the
            # first p**low rows of the full table
            low_rows = table[:p ** low, low_max - low:]
            block = np.empty((len(low_rows), n), dtype=np.int64)
            block[:, n - low:] = low_rows
            for high in itertools.product(range(p), repeat=n - low):
                block[:, :n - low] = high
                maps = []
                pos = 0
                for r, c in shapes:
                    maps.append(
                        block[:, pos:pos + r * c].reshape(len(block), r, c))
                    pos += r * c
                keep = ~relations_acting(algebra, maps).any(axis=0)
                for i in np.flatnonzero(keep):
                    yield Representation(algebra, dims,
                                         [mat[i] for mat in maps])


def _canonical_key(m: Representation) -> tuple:
    return (m.total_dim, m.dims,
            tuple(mat.tobytes() for mat in m.arrow_maps))


def _splits_off_simple(m: Representation) -> bool:
    """Certificate, with no Hom system, that M is decomposable: dim M >= 2
    and, at some vertex v, a vector x of soc M (killed by every arrow out
    of v) lies outside rad M (the images of the arrows into v; a loop
    counts as both).  A hyperplane of M_v that contains rad M at v but
    not x, with M at every other vertex, is a submodule H, <x> is a copy
    of S(v), and M = H + S(v).

    With In_v and Out_v as in reps._in_out_maps, soc M_v = ker Out_v and
    rad M_v = im In_v, so soc M_v meets rad M_v in In_v(ker Out_v.In_v).
    As ker In_v lies in ker Out_v.In_v, that intersection has dimension
    rank In_v - rank Out_v.In_v, and soc M_v is not inside rad M_v iff
    rank In_v + rank Out_v - rank Out_v.In_v < d_v."""
    if m.total_dim < 2:
        return False
    p = m.algebra.p
    for d, (into, out) in zip(m.dims, _in_out_maps(m)):
        # an empty matrix has rank 0 and needs no elimination
        rank_out = linalg.rank(out, p) if out.size else 0
        if rank_out == d:
            continue  # no socle at v
        if not into.size:
            return True  # a socle at v and no radical there
        product = linalg.matmul(out, into, p)
        if linalg.rank(into, p) + rank_out - linalg.rank(product, p) < d:
            return True
    return False


# ---------------------------------------------------------------------------
# naming and assembly


def _top_dims(m: Representation) -> tuple[int, ...]:
    """dim top M at each vertex v: d_v - rank In_v."""
    return tuple(d - linalg.rank(into, m.algebra.p)
                 for d, (into, _) in zip(m.dims, _in_out_maps(m)))


def _socle_dims(m: Representation) -> tuple[int, ...]:
    """dim soc M at each vertex v: d_v - rank Out_v."""
    return tuple(d - linalg.rank(out, m.algebra.p)
                 for d, (_, out) in zip(m.dims, _in_out_maps(m)))


def _assign_names(algebra: Algebra, members: list[Representation]) -> list[str]:
    """Standard names, decided with no Hom system: M is S(v) iff
    dim M = e_v; P(v) iff top M = S(v) and dim M = dim P(v), as the
    projective cover P(v) -> M is then onto and so an isomorphism; I(v)
    iff soc M = S(v) and dim M = dim I(v), dually.  Labels are tried in
    S, P, I order, each used at most once."""
    q = algebra.quiver

    def count(vertices):
        return tuple(vertices.count(u) for u in q.vertices)

    # (label, dimension vector, the layer that must be S(v), dim S(v))
    standards = [(f"S{v}", count([v]), _top_dims, count([v]))
                 for v in q.vertices]
    groups = algebra.path_groups
    standards += [(f"P{v}", tuple(len(g) for g in groups[vi]), _top_dims,
                   count([v]))
                  for vi, v in enumerate(q.vertices)]
    standards += [(f"I{v}", tuple(len(row[vi]) for row in groups),
                   _socle_dims, count([v]))
                  for vi, v in enumerate(q.vertices)]
    names = []
    used: set[str] = set()
    for idx, m in enumerate(members):
        name = next((label for label, dims, layer, simple in standards
                     if label not in used and m.dims == dims
                     and layer(m) == simple), None)
        if name is None:
            name = m.name if m.name and m.name not in used else f"X{idx}"
        used.add(name)
        names.append(name)
    return names


def _sorted_members(members: list[Representation]) -> list[Representation]:
    return sorted(members, key=_canonical_key)


def enumerate_indecomposables(algebra: Algebra, strategy: str = "classified",
                              dim_bound: int = 6) -> Corpus:
    """Complete corpus of indecomposables for the supported families, or a
    bound-limited brute-force corpus."""
    if strategy == "classified":
        if not algebra.relations.relations and _linear_order(algebra):
            members = _interval_modules(algebra)
            completeness = "certified-by-classification"
        elif _is_nakayama(algebra):
            members = _nakayama_members(algebra)
            completeness = "certified-by-classification"
        else:
            raise MalformedInputError(
                "no classification available for this algebra; use the "
                "brute strategy"
            )
        members = _sorted_members(members)
        for m in members:
            if not is_indecomposable(m):
                raise RuntimeError(
                    f"classified member {m!r} failed the indecomposability "
                    "check"
                )
        return Corpus(algebra, members, _assign_names(algebra, members),
                      completeness)
    if strategy == "brute":
        members: list[Representation] = []
        for rep in _all_representations(algebra, dim_bound):
            if _splits_off_simple(rep) or not is_indecomposable(rep):
                continue
            if any(rep.dims == m.dims and is_isomorphic(rep, m)
                   for m in members):
                continue
            members.append(rep)
        members = _sorted_members(members)
        return Corpus(algebra, members, _assign_names(algebra, members),
                      f"brute-force-up-to-dim-{dim_bound}")
    raise MalformedInputError(f"unknown strategy {strategy!r}")


def _is_nakayama(algebra: Algebra) -> bool:
    """Every vertex has at most one outgoing and one incoming arrow."""
    q = algebra.quiver
    out_deg = {v: 0 for v in q.vertices}
    in_deg = {v: 0 for v in q.vertices}
    for a in q.arrows:
        out_deg[a.source] += 1
        in_deg[a.target] += 1
    return all(out_deg[v] <= 1 and in_deg[v] <= 1 for v in q.vertices)


# ---------------------------------------------------------------------------
# decomposition


class NoDecompositionError(RuntimeError):
    """No multiset of corpus members has the direct sum M."""


def decompose(m: Representation, corpus: Corpus) -> dict[int, int]:
    """Multiset of corpus indices with direct sum isomorphic to M, for a
    corpus of pairwise non-isomorphic indecomposables, complete or not.

    Write M = sum Y_k^(a_k) over pairwise non-isomorphic indecomposables.
    For indecomposables X and Y, rad(X, Y) = Hom(X, Y) unless X = Y up
    to isomorphism, so dim Hom(X, M)/rad(X, M) = a_X d_X, with
    d_X = dim End X/rad and a_X the multiplicity of X in M (Auslander,
    Reiten and Smalo).  A member whose dimension vector does not fit in
    M, or with Hom(M, X) = 0, is no summand.  The multiplicities read off
    this way are exact, so they account for M iff their dimension vectors
    add up to dim M; otherwise M has a summand the corpus does not list,
    and NoDecompositionError is raised.
    """
    if m.algebra is not corpus.algebra:
        raise ValueError("module and corpus live over different algebras")
    result = {}
    for i, x in enumerate(corpus.members):
        if (any(a > b for a, b in zip(x.dims, m.dims))
                or not hom_dim(m, x)):
            continue
        count = _top_dim(x, m) // (hom_dim(x, x) - len(_radical(x)))
        if count:
            result[i] = count
    dims = tuple(sum(c * corpus.members[i].dims[v] for i, c in result.items())
                 for v in range(len(m.dims)))
    if dims != m.dims:
        raise NoDecompositionError(
            "no corpus decomposition found: the dimension vectors of the "
            f"multiplicities read off do not add up to {m!r}"
        )
    return result


__all__ = [
    "Corpus",
    "NoDecompositionError",
    "decompose",
    "enumerate_indecomposables",
    "is_indecomposable",
]
