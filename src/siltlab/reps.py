"""Finite-dimensional representations of a quotient path algebra.

A representation assigns a vector space over F_p to each vertex and a
matrix to each arrow; a morphism is a family of vertex matrices making
every arrow square commute.  Kernels, images, cokernels, direct sums,
Hom spaces and isomorphism testing all reduce to exact linear algebra.
The duality D takes modules to modules over the opposite algebra, and
the injective modules are the duals of its projectives.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .linalg import MalformedInputError
from .pathalg import Algebra, Path


class AlgebraMismatchError(ValueError):
    """Operands live over different algebras."""


class UndecidableError(RuntimeError):
    """A decision procedure refused rather than guess."""


class Representation:
    """Immutable by convention: never mutate dims or arrow_maps."""

    _serials = itertools.count()

    def __init__(self, algebra: Algebra, dims, arrow_maps, name: str = ""):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        self.arrow_maps = tuple(
            linalg.reduce_mod(m, algebra.p) for m in arrow_maps
        )
        self.name = name
        self._serial = next(Representation._serials)  # creation order
        self._cache: dict = {}
        if len(self.dims) != algebra.n_vertices:
            raise MalformedInputError("dimension vector has wrong length")
        if len(self.arrow_maps) != len(algebra.quiver.arrows):
            raise MalformedInputError("one matrix per arrow required")
        d = self.dims
        for arrow, mat, (u, w) in zip(algebra.quiver.arrows, self.arrow_maps,
                                      algebra.arrow_ends):
            if mat.shape != (d[w], d[u]):
                raise MalformedInputError(
                    f"arrow {arrow.name}: matrix shape {mat.shape}, "
                    f"expected {(d[w], d[u])}")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def vdim(self, v: str) -> int:
        return self.dims[self.algebra.quiver.vertex_index(v)]

    def path_action(self, path: Path) -> np.ndarray:
        """Matrix of the path's action, M_end x M_start."""
        alg = self.algebra
        mat = linalg.identity(self.vdim(path.start))
        for ai in path.arrows:
            mat = linalg.matmul(self.arrow_maps[ai], mat, alg.p)
        return mat

    def __repr__(self):
        tag = self.name or "rep"
        return f"<{tag} dims={self.dims}>"


class Morphism:
    def __init__(self, source: Representation, target: Representation,
                 vertex_maps):
        if source.algebra is not target.algebra:
            raise AlgebraMismatchError("morphism across different algebras")
        self.source = source
        self.target = target
        self.vertex_maps = tuple(
            linalg.reduce_mod(m, source.algebra.p) for m in vertex_maps
        )
        for i, m in enumerate(self.vertex_maps):
            if m.shape != (target.dims[i], source.dims[i]):
                raise MalformedInputError(
                    f"vertex map {i} has shape {m.shape}, expected "
                    f"{(target.dims[i], source.dims[i])}"
                )

    def is_natural(self) -> bool:
        alg = self.source.algebra
        for ai, (u, w) in enumerate(alg.arrow_ends):
            lhs = linalg.matmul(self.target.arrow_maps[ai],
                                self.vertex_maps[u], alg.p)
            rhs = linalg.matmul(self.vertex_maps[w],
                                self.source.arrow_maps[ai], alg.p)
            if not np.array_equal(lhs, rhs):
                return False
        return True

    def is_zero(self) -> bool:
        return all(not m.any() for m in self.vertex_maps)

    def is_mono(self) -> bool:
        p = self.source.algebra.p
        return all(linalg.rank(m, p) == m.shape[1] for m in self.vertex_maps)

    def is_epi(self) -> bool:
        p = self.source.algebra.p
        return all(linalg.rank(m, p) == m.shape[0] for m in self.vertex_maps)

    def is_iso(self) -> bool:
        return (self.source.dims == self.target.dims and self.is_mono()
                and self.is_epi())

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other."""
        if other.target is not self.source and (
            other.target.dims != self.source.dims
        ):
            raise MalformedInputError("composition shape mismatch")
        p = self.source.algebra.p
        maps = [linalg.matmul(f, g, p)
                for f, g in zip(self.vertex_maps, other.vertex_maps)]
        return Morphism(other.source, self.target, maps)

    def flatten(self) -> np.ndarray:
        if not self.vertex_maps:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([m.reshape(-1) for m in self.vertex_maps])


def zero_representation(algebra: Algebra) -> Representation:
    dims = [0] * algebra.n_vertices
    maps = [linalg.zeros(0, 0) for _ in algebra.quiver.arrows]
    return Representation(algebra, dims, maps, name="0")


def zero_morphism(source: Representation, target: Representation) -> Morphism:
    maps = [linalg.zeros(target.dims[i], source.dims[i])
            for i in range(len(source.dims))]
    return Morphism(source, target, maps)


# ---------------------------------------------------------------------------
# validation


def validate(m: Representation) -> list[str]:
    """Empty list when the representation is well-formed."""
    problems: list[str] = []
    alg = m.algebra
    q = alg.quiver
    acting = relations_acting(alg, [mat[np.newaxis] for mat in m.arrow_maps])
    for rel, hit in zip(alg.relations.relations, acting[:, 0]):
        if hit:
            labels = " + ".join(
                f"{c}*{path.label(q)}" for c, path in rel
            )
            problems.append(f"relation {labels} acts nontrivially")
    return problems


def relations_acting(algebra: Algebra, arrow_maps) -> np.ndarray:
    """Which relations act nontrivially on a batch of representations.

    ``arrow_maps`` holds one stacked array per arrow, of shape
    (batch, rows, cols) with entries in [0, p), for a batch that shares
    one dimension vector.  The result has one row per relation and one
    column per batch entry, True where the relation's signed path sum is
    a nonzero matrix mod p.
    """
    p = algebra.p
    batch = arrow_maps[0].shape[0] if arrow_maps else 1
    acting = np.zeros((len(algebra.relations.relations), batch), dtype=bool)
    for ri, rel in enumerate(algebra.relations.relations):
        # relation paths have length >= 2 (Algebra checks it); each term
        # is below p**2, so a relation's sum is exact in int64
        acc = 0
        for coeff, path in rel:
            mat = arrow_maps[path.arrows[0]]
            for ai in path.arrows[1:]:
                mat = np.matmul(arrow_maps[ai], mat)
                mat %= p
            acc = acc + (coeff % p) * mat
        acting[ri] = (np.reshape(acc, (batch, -1)) % p).any(axis=1)
    return acting


# ---------------------------------------------------------------------------
# standard modules


def simple_module(algebra: Algebra, v: str) -> Representation:
    q = algebra.quiver
    vi = q.vertex_index(v)
    dims = [1 if i == vi else 0 for i in range(algebra.n_vertices)]
    maps = [linalg.zeros(dims[w], dims[u]) for u, w in algebra.arrow_ends]
    return Representation(algebra, dims, maps, name=f"S({v})")


def projective_module(algebra: Algebra, v: str) -> Representation:
    """Re_v: basis the classes of paths with source v."""
    q = algebra.quiver
    groups = algebra.path_groups[q.vertex_index(v)]
    indices = [[bi for bi, _ in group] for group in groups]
    maps = []
    for ai, (u, w) in enumerate(algebra.arrow_ends):
        arrow_class = algebra.basis_index[Path(q.vertices[u], (ai,))]
        # entry [row, col]: coordinate indices[w][row] of the arrow times
        # basis path indices[u][col]
        products = algebra.mult(arrow_class, indices[u])
        maps.append(products[:, indices[w]].T)
    return Representation(algebra, [len(g) for g in groups], maps,
                          name=f"P({v})")


def dual(m: Representation) -> Representation:
    """D M = Hom_k(M, k) over the opposite algebra: the same dimension
    vector, each arrow acting by the transpose of its matrix."""
    return Representation(m.algebra.opposite, m.dims,
                          [mat.T for mat in m.arrow_maps])


def injective_module(algebra: Algebra, v: str) -> Representation:
    """I(v) = D P(v) for P(v) over the opposite algebra: its basis is dual
    to the classes of paths of A^op with source v."""
    iv = dual(projective_module(algebra.opposite, v))
    iv.name = f"I({v})"
    return iv


def regular_module(algebra: Algebra) -> Representation:
    reps = [projective_module(algebra, v) for v in algebra.vertices]
    summed = direct_sum(algebra, reps)
    summed.name = "R"
    return summed


def hom_from_projective(algebra: Algebra, v: str, pv: Representation,
                        target: Representation, x: np.ndarray) -> Morphism:
    """The morphism P(v) -> target sending the generator e_v to x.

    x is a vector in target's space at v; the basis path b: v -> u maps
    to (action of b) applied to x.  This realizes Hom(P(v), M) = M_v.
    """
    groups = algebra.path_groups[algebra.quiver.vertex_index(v)]
    column = x.reshape(-1, 1)
    maps = [np.hstack([linalg.zeros(d, 0)]
                      + [linalg.matmul(target.path_action(path), column,
                                       algebra.p) for _, path in group])
            for d, group in zip(target.dims, groups)]
    return Morphism(pv, target, maps)


# ---------------------------------------------------------------------------
# Hom spaces


def hom_space(m: Representation, n: Representation) -> list[Morphism]:
    """Deterministic basis of Hom(M, N)."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatchError("hom_space across different algebras")
    # Kept by the younger of m and n, keyed by both modules themselves: the
    # entry keeps only the older one alive (its morphisms hold both anyway),
    # so a transient module never enters a long-lived module's cache, and
    # no later module can reuse a cached module's id.
    cache = (m if m._serial >= n._serial else n)._cache
    key = ("hom", m, n)
    cached = cache.get(key)
    if cached is not None:
        return cached
    alg = m.algebra
    p = alg.p
    nv = alg.n_vertices
    offsets = [0, *itertools.accumulate(
        n.dims[i] * m.dims[i] for i in range(nv))]
    total = offsets[-1]
    # equation N_a f_u - f_w M_a = 0 for each arrow a: u -> w, one row per
    # entry (i, j) of the n_w x m_u result, with row-major vec(f_v)
    rows = []
    for ai, (u, w) in enumerate(alg.arrow_ends):
        mu, mw = m.dims[u], m.dims[w]
        n_a = n.arrow_maps[ai].tolist()
        m_a_cols = m.arrow_maps[ai].T.tolist()
        for i, n_row in enumerate(n_a):
            f_w_row = offsets[w] + i * mw
            for j, m_col in enumerate(m_a_cols):
                row = [0] * total
                for k, c in enumerate(n_row):
                    if c:
                        row[offsets[u] + k * mu + j] = c
                for l, c in enumerate(m_col):
                    if c:
                        row[f_w_row + l] = (row[f_w_row + l] - c) % p
                rows.append(row)
    basis_vectors = linalg.kernel(rows or linalg.zeros(0, total), p)
    result = []
    for k in range(basis_vectors.shape[1]):
        vec = basis_vectors[:, k]
        maps = [vec[offsets[i]:offsets[i + 1]].reshape(n.dims[i], m.dims[i])
                for i in range(nv)]
        result.append(Morphism(m, n, maps))
    cache[key] = result
    return result


def hom_dim(m: Representation, n: Representation) -> int:
    return len(hom_space(m, n))


# ---------------------------------------------------------------------------
# sub/quotient machinery


def _canonical_spans(n: Representation, spans: list[np.ndarray]):
    p = n.algebra.p
    return [linalg.column_space_basis(s, p) for s in spans]


def sub_representation(n: Representation, spans: list[np.ndarray]):
    """Subrepresentation on per-vertex column spans (must be action-closed).

    Returns (sub, inclusion).
    """
    alg = n.algebra
    p = alg.p
    basis = _canonical_spans(n, spans)
    dims = [b.shape[1] for b in basis]
    maps = []
    for ai, (u, w) in enumerate(alg.arrow_ends):
        rhs = linalg.matmul(n.arrow_maps[ai], basis[u], p)
        sol = linalg.solve(basis[w], rhs, p)
        if sol is None:
            raise MalformedInputError("spans are not closed under the action")
        maps.append(sol)
    sub = Representation(alg, dims, maps)
    incl = Morphism(sub, n, basis)
    return sub, incl


def quotient_representation(n: Representation, spans: list[np.ndarray]):
    """Quotient by the subrepresentation spanned per vertex.

    Returns (quotient, projection).
    """
    alg = n.algebra
    p = alg.p
    projections = []
    sections = []
    for b in _canonical_spans(n, spans):
        comp, change = linalg.basis_complement(b)
        projections.append(linalg.invert(change, p)[b.shape[1]:, :])
        sections.append(comp)
    dims = [pr.shape[0] for pr in projections]
    maps = []
    for ai, (u, w) in enumerate(alg.arrow_ends):
        mat = linalg.matmul(
            projections[w],
            linalg.matmul(n.arrow_maps[ai], sections[u], p), p)
        maps.append(mat)
    quot = Representation(alg, dims, maps)
    proj = Morphism(n, quot, projections)
    return quot, proj


def span_closure(m: Representation, vectors: list[np.ndarray]):
    """Per-vertex spans of the submodule generated by the given vectors.

    Each vector is a concatenated coordinate tuple over all vertices.  The
    spans grow as U <- U + J.U until their ranks stop growing.
    """
    p = m.algebra.p
    columns = [linalg.zeros(m.total_dim, 0)]
    for vec in vectors:
        columns.append(linalg.reduce_mod(vec, p).reshape(-1, 1))
        if columns[-1].shape[0] != m.total_dim:
            raise MalformedInputError("generator vector has wrong length")
    blocks = np.split(np.hstack(columns), np.cumsum(m.dims)[:-1])
    spans = [linalg.column_space_basis(b, p) for b in blocks]
    while True:
        grown = [linalg.column_space_basis(np.hstack([s, r]), p)
                 for s, r in zip(spans, radical_of_spans(m, spans))]
        if all(g.shape[1] == s.shape[1] for g, s in zip(grown, spans)):
            return grown
        spans = grown


# ---------------------------------------------------------------------------
# kernels, images, cokernels


def kernel(f: Morphism):
    """Kernel of a morphism: (kernel, inclusion into the source)."""
    p = f.source.algebra.p
    return sub_representation(
        f.source, [linalg.kernel(mat, p) for mat in f.vertex_maps])


def cokernel(f: Morphism):
    """Cokernel of a morphism: (cokernel, projection from the target)."""
    return quotient_representation(f.target, list(f.vertex_maps))


def factorize(f: Morphism):
    """Kernel, image and cokernel of a morphism.

    Returns a dict with keys kernel, kernel_inclusion, image,
    image_inclusion, image_projection, cokernel, cokernel_projection.
    """
    p = f.source.algebra.p
    kernel_rep, kernel_incl = kernel(f)
    image_rep, image_incl = sub_representation(f.target, list(f.vertex_maps))
    # corestriction source -> image: solve incl . g = f vertexwise
    g_maps = [linalg.solve(incl, mat, p)
              for incl, mat in zip(image_incl.vertex_maps, f.vertex_maps)]
    image_proj = Morphism(f.source, image_rep, g_maps)
    cokernel_rep, cokernel_proj = cokernel(f)
    return {
        "kernel": kernel_rep,
        "kernel_inclusion": kernel_incl,
        "image": image_rep,
        "image_inclusion": image_incl,
        "image_projection": image_proj,
        "cokernel": cokernel_rep,
        "cokernel_projection": cokernel_proj,
    }


# ---------------------------------------------------------------------------
# direct sums


def direct_sum(algebra: Algebra, reps: list[Representation],
               multiplicities: list[int] | None = None) -> Representation:
    """Direct sum of the multiplicity-expanded summands, in input order:
    each arrow acts block-diagonally, a summand's block written at its
    running row offset at the arrow's target and column offset at its
    source."""
    if multiplicities is None:
        multiplicities = [1] * len(reps)
    elif len(multiplicities) != len(reps):
        raise MalformedInputError(
            f"{len(multiplicities)} multiplicities for {len(reps)} summands")
    expanded: list[Representation] = []
    for rep, mult in zip(reps, multiplicities):
        if rep.algebra is not algebra:
            raise AlgebraMismatchError("direct sum across different algebras")
        if not isinstance(mult, (int, np.integer)) or mult < 0:
            raise MalformedInputError(
                f"multiplicity {mult!r} is not a nonnegative integer")
        expanded.extend([rep] * mult)
    nv = algebra.n_vertices
    dims = [sum(r.dims[i] for r in expanded) for i in range(nv)]
    maps = []
    for ai, (u, w) in enumerate(algebra.arrow_ends):
        mat = linalg.zeros(dims[w], dims[u])
        r0 = c0 = 0
        for r in expanded:
            rows, cols = r.dims[w], r.dims[u]
            mat[r0:r0 + rows, c0:c0 + cols] = r.arrow_maps[ai]
            r0 += rows
            c0 += cols
        maps.append(mat)
    return Representation(algebra, dims, maps)


def morphism_out_of_sum(total: Representation, target: Representation,
                        parts: list[Morphism]) -> Morphism:
    """The morphism total -> target whose k-th block is parts[k], for
    total the direct sum of the parts' sources: at each vertex the parts'
    matrices side by side."""
    maps = [np.hstack([linalg.zeros(d, 0)]
                      + [f.vertex_maps[i] for f in parts])
            for i, d in enumerate(target.dims)]
    return Morphism(total, target, maps)


def morphism_into_sum(source: Representation, total: Representation,
                      parts: list[Morphism]) -> Morphism:
    """The morphism source -> total whose k-th block is parts[k], for
    total the direct sum of the parts' targets: at each vertex the parts'
    matrices stacked."""
    maps = [np.vstack([linalg.zeros(0, d)]
                      + [f.vertex_maps[i] for f in parts])
            for i, d in enumerate(source.dims)]
    return Morphism(source, total, maps)


# ---------------------------------------------------------------------------
# radical / top / socle, composition factors


def radical_of_spans(m: Representation,
                     spans: list[np.ndarray]) -> list[np.ndarray]:
    """Canonical per-vertex spans of J.U = sum over arrows a: u -> w of
    M_a U_u, for U given by per-vertex spans.  When U is a submodule, so
    is J.U."""
    alg = m.algebra
    pushed = [[linalg.zeros(d, 0)] for d in m.dims]
    for ai, (u, w) in enumerate(alg.arrow_ends):
        pushed[w].append(linalg.matmul(m.arrow_maps[ai], spans[u], alg.p))
    return [linalg.column_space_basis(np.hstack(c), alg.p) for c in pushed]


def _in_out_maps(m: Representation) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per vertex v, (In_v, Out_v): the matrices of the arrows into v side
    by side, d_v x (their source dimensions), and those of the arrows out
    of v stacked, (their target dimensions) x d_v, in arrow order; a loop
    at v is in both.  rad M at v is the column span of In_v and soc M at v
    the kernel of Out_v."""
    ins = [[linalg.zeros(d, 0)] for d in m.dims]
    outs = [[linalg.zeros(0, d)] for d in m.dims]
    for mat, (u, w) in zip(m.arrow_maps, m.algebra.arrow_ends):
        ins[w].append(mat)
        outs[u].append(mat)
    return [(np.hstack(i), np.vstack(o)) for i, o in zip(ins, outs)]


def radical_spans(m: Representation) -> list[np.ndarray]:
    p = m.algebra.p
    return [linalg.column_space_basis(into, p) for into, _ in _in_out_maps(m)]


def socle_spans(m: Representation) -> list[np.ndarray]:
    p = m.algebra.p
    return [linalg.kernel(out, p) for _, out in _in_out_maps(m)]


def composition_factors(m: Representation) -> dict[str, int]:
    """Multiset of simple factors; for basic algebras this is the
    dimension vector."""
    return {v: m.dims[i] for i, v in enumerate(m.algebra.vertices)
            if m.dims[i] > 0}


# ---------------------------------------------------------------------------
# indecomposability


def _power(maps: list[np.ndarray], k: int, q: int) -> list[np.ndarray]:
    """The vertex matrices, or stacks of them, to the power k >= 1 mod q,
    by square and multiply over the bits of k."""
    result = maps
    for bit in bin(k)[3:]:
        result = [a @ a % q for a in result]
        if bit == "1":
            result = [a @ b % q for a, b in zip(result, maps)]
    return result


def _stacks(maps: list[Morphism], rows, cols) -> list[np.ndarray]:
    """Per vertex v, the (len(maps), rows[v], cols[v]) stack of the maps'
    matrices."""
    return [np.array([f.vertex_maps[vi] for f in maps], dtype=np.int64)
            .reshape(len(maps), r, c)
            for vi, (r, c) in enumerate(zip(rows, cols))]


def _rows(stacks: list[np.ndarray]) -> np.ndarray:
    """The maps of vertex stacks as rows, each laid out as by flatten."""
    return np.hstack([s.reshape(len(s), s.shape[1] * s.shape[2])
                      for s in stacks])


def _radical(m: Representation) -> np.ndarray:
    """A basis of rad End M as flattened rows, computed once per module.

    Cohen, Ivanyos and Wales (JPAA 117-118, 1997): starting from End M,
    step i keeps the a in the current ideal with g_i(ab) = 0 for every
    basis map b, where g_i(x) = Tr(x^(p^i)) / p^i mod p, the power taken
    on integer lifts mod p^(i+1); g_i is linear on the previous ideal.
    The steps run while p^i <= dim M, so for p > dim M only the trace
    form Tr(ab) is read (Dickson).
    """
    cached = m._cache.get("radical")
    if cached is not None:
        return cached
    basis = hom_space(m, m)
    p = m.algebra.p
    ideal = _stacks(basis, m.dims, m.dims)
    scale = 1  # p^i
    while scale <= m.total_dim and len(ideal[0]):
        q = p * scale
        # row b holds g_i(ab) for the maps a of the ideal
        gram = [sum(np.trace(x, axis1=1, axis2=2) for x in _power(
                    [a @ y % p for a, y in zip(ideal, b.vertex_maps)],
                    scale, q)) % q // scale for b in basis]
        coeffs = linalg.kernel(gram, p).T
        ideal = [np.tensordot(coeffs, a, axes=1) % p for a in ideal]
        scale *= p
    rad = m._cache["radical"] = _rows(ideal)
    return rad


def is_indecomposable(m: Representation) -> bool:
    """True iff End M is local, decided exactly.

    A basis endomorphism that is neither nilpotent nor invertible splits M
    along its Fitting decomposition.  Otherwise End M is local iff
    End/rad is a field: commutative, with a one-dimensional subspace
    fixed by x -> x^p (Berlekamp), as a finite division ring is a field.
    """
    if m.is_zero():
        return False
    cached = m._cache.get("indecomposable")
    if cached is not None:
        return cached
    basis = hom_space(m, m)
    p = m.algebra.p
    n = m.total_dim
    exponent = 1 << (n - 1).bit_length()  # squarings up to dim M
    if len(basis) == 1:
        result = True  # End = k . id
    elif any(0 < sum(linalg.rank(x, p)
                     for x in _power(f.vertex_maps, exponent, p)) < n
             for f in reversed(basis)):
        result = False
    else:
        rad = list(_radical(m))

        def rank_over_rad(vectors):
            return linalg.rank(np.stack(rad + vectors, axis=1), p)

        commutators = [(a.compose(b).flatten() - b.compose(a).flatten()) % p
                       for a, b in itertools.combinations(basis, 2)]
        frobenius = [(Morphism(m, m, _power(f.vertex_maps, p, p)).flatten()
                      - f.flatten()) % p for f in basis]
        result = (rank_over_rad(commutators) == len(rad)
                  and len(basis) - rank_over_rad(frobenius) == 1)
    m._cache["indecomposable"] = result
    return result


# ---------------------------------------------------------------------------
# isomorphism testing


def combination(basis: list[Morphism], coeffs) -> Morphism:
    """The morphism sum_k c_k f_k over a nonempty Hom basis."""
    first = basis[0]
    maps = [sum(int(c) * f.vertex_maps[vi] for c, f in zip(coeffs, basis))
            for vi in range(len(first.vertex_maps))]
    return Morphism(first.source, first.target, maps)


def _top_dim(m: Representation, n: Representation) -> int:
    """dim Hom(M, N)/rad(M, N), for any two dimension vectors: the rank
    of f -> (g.f mod rad End M) over the basis maps g of Hom(N, M), whose
    kernel is rad(M, N)."""
    p = m.algebra.p
    # an endomorphism is determined by its entries at these coordinates,
    # and the columns of dual are functionals there that vanish together
    # exactly on rad End M
    ends = np.stack([f.flatten() for f in hom_space(m, m)])
    coords = list(linalg.row_reduce(ends, p).pivot_columns)
    dual = linalg.kernel(_radical(m)[:, coords], p)
    forth = _stacks(hom_space(m, n), n.dims, m.dims)
    blocks = [_rows([x @ f % p for x, f in zip(g.vertex_maps, forth)])
              [:, coords] @ dual % p for g in hom_space(n, m)]
    return linalg.rank(np.hstack([linalg.zeros(len(forth[0]), 0), *blocks]),
                       p)


def is_isomorphic(m: Representation, n: Representation) -> bool:
    """Whether M and N are isomorphic, decided exactly.

    For an indecomposable M, End M is local: given an isomorphism
    g: N -> M, f is one iff g.f lies outside rad End M, so the
    non-isomorphisms form a proper subspace of Hom(M, N), which no basis
    lies in.  Otherwise write M = sum X_i^(a_i) and N = sum X_i^(b_i)
    over pairwise non-isomorphic indecomposables X_i, with
    d_i = dim End X_i / rad, and rad(M, N) for the f: M -> N with g.f in
    rad End M for every g: N -> M.  Then dim Hom(M, N)/rad(M, N) is
    sum a_i b_i d_i, and it equals both dim End M / rad = sum a_i^2 d_i
    and dim End N / rad = sum b_i^2 d_i iff sum d_i (a_i - b_i)^2 = 0,
    that is iff a = b (Auslander, Reiten and Smalo, Representation Theory
    of Artin Algebras).
    """
    if m.algebra is not n.algebra:
        raise AlgebraMismatchError("comparison across different algebras")
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    if is_indecomposable(m):
        return any(f.is_iso() for f in reversed(hom_space(m, n)))
    top = hom_dim(m, m) - len(_radical(m))
    return top == hom_dim(n, n) - len(_radical(n)) == _top_dim(m, n)


__all__ = [
    "AlgebraMismatchError",
    "Morphism",
    "Representation",
    "UndecidableError",
    "cokernel",
    "combination",
    "composition_factors",
    "direct_sum",
    "dual",
    "factorize",
    "hom_dim",
    "hom_from_projective",
    "hom_space",
    "injective_module",
    "is_indecomposable",
    "is_isomorphic",
    "kernel",
    "morphism_into_sum",
    "morphism_out_of_sum",
    "projective_module",
    "quotient_representation",
    "radical_of_spans",
    "radical_spans",
    "regular_module",
    "relations_acting",
    "simple_module",
    "socle_spans",
    "span_closure",
    "sub_representation",
    "validate",
    "zero_morphism",
    "zero_representation",
]
