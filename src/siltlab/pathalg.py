"""Finite-dimensional quotient path algebras kQ/I over a prime field.

An algebra is presented by a quiver, a set of admissible relations and a
declared nilpotency bound m with J^m contained in the relation ideal.
Normal forms are computed degree by degree: within the span of the paths
of each length, the degree-l slice of the ideal is row-reduced and the
non-pivot paths become the basis classes of that degree.

Relations must be length-homogeneous (every term of a relation has the
same length); this covers monomial and commutativity relations, which is
all the admissible presentations the workbench targets.

The product table is checked for associativity at construction.  The
opposite algebra A^op computes its own path basis and normal forms but
not its table: reversing paths is an anti-isomorphism A^op -> A, so the
table is transported from A's, which is already checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import MalformedInputError


class AlgebraConstructionError(ValueError):
    """Raised when a presentation is malformed or not admissible."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise AlgebraConstructionError("duplicate vertex identifiers")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise AlgebraConstructionError("duplicate arrow names")
        for a in self.arrows:
            if a.source not in self.vertices or a.target not in self.vertices:
                raise AlgebraConstructionError(
                    f"arrow {a.name} uses undeclared vertices"
                )

    def vertex_index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise AlgebraConstructionError(f"unknown vertex {v!r}") from None

    def arrow_index(self, name: str) -> int:
        for i, a in enumerate(self.arrows):
            if a.name == name:
                return i
        raise AlgebraConstructionError(f"unknown arrow {name!r}")

    def is_acyclic(self) -> bool:
        adj = {v: [] for v in self.vertices}
        for a in self.arrows:
            adj[a.source].append(a.target)
        state = {v: 0 for v in self.vertices}

        def visit(v):
            state[v] = 1
            for w in adj[v]:
                if state[w] == 1:
                    return False
                if state[w] == 0 and not visit(w):
                    return False
            state[v] = 2
            return True

        return all(state[v] or visit(v) for v in self.vertices)

    def longest_path_length(self) -> int:
        """Length of the longest path; requires an acyclic quiver."""
        if not self.is_acyclic():
            raise AlgebraConstructionError("quiver has oriented cycles")
        best = {v: 0 for v in self.vertices}
        # relax repeatedly; at most |V| rounds on an acyclic quiver
        for _ in range(len(self.vertices)):
            for a in self.arrows:
                best[a.target] = max(best[a.target], best[a.source] + 1)
        return max(best.values(), default=0)


@dataclass(frozen=True)
class Path:
    """A path in traversal order: start vertex, then arrow indices."""

    start: str
    arrows: tuple[int, ...]

    def length(self) -> int:
        return len(self.arrows)

    def end_in(self, quiver: Quiver) -> str:
        if not self.arrows:
            return self.start
        return quiver.arrows[self.arrows[-1]].target

    def label(self, quiver: Quiver) -> str:
        if not self.arrows:
            return f"e_{self.start}"
        # composition order: last-traversed arrow written first
        return "*".join(quiver.arrows[i].name for i in reversed(self.arrows))


# A relation is a formal sum of parallel paths: tuple of (coefficient, path).
Relation = tuple[tuple[int, Path], ...]


@dataclass(frozen=True)
class RelationSet:
    relations: tuple[Relation, ...]
    nilpotency_bound: int

    def __post_init__(self):
        if self.nilpotency_bound < 1:
            raise AlgebraConstructionError("nilpotency bound must be >= 1")


def _enumerate_paths(quiver: Quiver, max_length: int) -> list[list[Path]]:
    """Paths grouped by length, in deterministic generation order."""
    by_length = [[Path(v, ()) for v in quiver.vertices]]
    for _ in range(max_length):
        layer = []
        for path in by_length[-1]:
            end = path.end_in(quiver)
            for i, a in enumerate(quiver.arrows):
                if a.source == end:
                    layer.append(Path(path.start, path.arrows + (i,)))
        by_length.append(layer)
    return by_length


@dataclass
class _DegreeCell:
    """Normal-form data for the paths of one fixed length."""

    paths: list[Path]
    index: dict[Path, int]
    reduction: linalg.EchelonData | None  # None when the ideal slice is zero
    basis_positions: list[int]  # non-pivot path positions

    def normal_form(self, vec: np.ndarray, p: int) -> np.ndarray:
        if self.reduction is None:
            return vec % p
        v = vec % p
        red = self.reduction
        for i, col in enumerate(red.pivot_columns):
            c = v[col]
            if c:
                v = (v - c * red.rref[i]) % p
        return v


class Algebra:
    """A basic finite-dimensional algebra kQ/I with explicit path basis."""

    def __init__(self, quiver: Quiver, relations: RelationSet, p: int):
        self._build_basis(quiver, relations, p)
        self._products = self._product_table()
        self._check_associativity()

    @property
    def opposite(self) -> Algebra:
        """A^op: every arrow and every relation path reversed, the arrow
        order and the coefficients kept.  Built on first use and kept;
        its opposite is this algebra.

        Its path basis and normal forms are its own, but its product
        table is transported from this one's, which is already checked:
        reversal is an anti-isomorphism, so the table is associative and
        generated by the arrows as this one is."""
        if self._opposite is None:
            q = self.quiver
            arrows = tuple(Arrow(a.name, a.target, a.source) for a in q.arrows)
            relations = tuple(
                tuple((c, Path(path.end_in(q), path.arrows[::-1]))
                      for c, path in rel)
                for rel in self.relations.relations)
            op = Algebra.__new__(Algebra)
            op._build_basis(Quiver(q.vertices, arrows),
                            RelationSet(relations,
                                        self.relations.nilpotency_bound),
                            self.p)
            op._products = self._transported_table(op)
            op._opposite = self
            self._opposite = op
        return self._opposite

    # -- construction -------------------------------------------------

    def _build_basis(self, quiver: Quiver, relations: RelationSet, p: int):
        """Everything but the product table: the normal forms degree by
        degree, the path basis and its grouping by endpoints."""
        linalg.check_prime(p)
        self.quiver = q = quiver
        self.relations = relations
        self.p = p
        # (source, target) vertex indices of each arrow, in arrow order
        self.arrow_ends = tuple(
            (q.vertex_index(a.source), q.vertex_index(a.target))
            for a in q.arrows)
        self._opposite: Algebra | None = None
        m = relations.nilpotency_bound
        self._check_relations()
        paths = _enumerate_paths(q, m)
        self._cells: list[_DegreeCell] = []
        basis: list[Path] = []
        for length in range(m + 1):
            cell_paths = paths[length]
            index = {path: i for i, path in enumerate(cell_paths)}
            span_rows = self._ideal_slice(paths, length)
            if span_rows:
                red = linalg.row_reduce(np.array(span_rows), p)
            else:
                red = None
            pivots = set(red.pivot_columns) if red else set()
            free = [i for i in range(len(cell_paths)) if i not in pivots]
            self._cells.append(_DegreeCell(cell_paths, index, red, free))
            if length == m:
                if free:
                    bad = cell_paths[free[0]].label(q)
                    raise AlgebraConstructionError(
                        f"not admissible: path {bad} of length {m} does not "
                        "reduce to zero"
                    )
            else:
                basis.extend(cell_paths[i] for i in free)
        self.basis: tuple[Path, ...] = tuple(basis)
        self.dim = len(basis)
        self.basis_index = {path: i for i, path in enumerate(self.basis)}
        # path_groups[s][t]: the (basis index, path) pairs of the basis
        # paths from vertex s to vertex t (indices), in basis order
        n = len(q.vertices)
        groups = [[[] for _ in range(n)] for _ in range(n)]
        for i, path in enumerate(self.basis):
            groups[q.vertex_index(path.start)][
                q.vertex_index(path.end_in(q))].append((i, path))
        self.path_groups = tuple(tuple(tuple(g) for g in row)
                                 for row in groups)

    def _check_relations(self):
        q = self.quiver
        for rel in self.relations.relations:
            if not rel:
                raise AlgebraConstructionError("empty relation")
            lengths = {path.length() for _, path in rel}
            if len(lengths) != 1:
                raise AlgebraConstructionError(
                    "relations must be length-homogeneous"
                )
            (length,) = lengths
            if length < 2:
                raise AlgebraConstructionError(
                    "relations must involve paths of length >= 2"
                )
            ends = {(path.start, path.end_in(q)) for _, path in rel}
            if len(ends) != 1:
                raise AlgebraConstructionError(
                    "relation terms must be parallel paths"
                )

    def _ideal_slice(self, paths: list[list[Path]], length: int):
        """Spanning vectors of the degree-`length` part of the ideal."""
        q = self.quiver
        index = {path: i for i, path in enumerate(paths[length])}
        rows = []
        for rel in self.relations.relations:
            rel_len = rel[0][1].length()
            rel_start = rel[0][1].start
            rel_end = rel[0][1].end_in(q)
            if rel_len > length:
                continue
            for left_len in range(length - rel_len + 1):
                right_len = length - rel_len - left_len
                rights = [w for w in paths[right_len]
                          if w.end_in(q) == rel_start]
                lefts = [w for w in paths[left_len] if w.start == rel_end]
                for right, left in itertools.product(rights, lefts):
                    vec = np.zeros(len(paths[length]), dtype=np.int64)
                    for coeff, mid in rel:
                        whole = Path(
                            right.start,
                            right.arrows + mid.arrows + left.arrows,
                        )
                        vec[index[whole]] = (vec[index[whole]] + coeff) % self.p
                    if vec.any():
                        rows.append(vec)
        return rows

    # -- basis arithmetic ---------------------------------------------

    def class_of(self, path: Path) -> np.ndarray:
        """Coefficient vector of a path's residue class over the basis."""
        length = path.length()
        out = np.zeros(self.dim, dtype=np.int64)
        if length >= len(self._cells):
            return out  # beyond the nilpotency bound, hence zero
        cell = self._cells[length]
        vec = np.zeros(len(cell.paths), dtype=np.int64)
        vec[cell.index[path]] = 1
        nf = cell.normal_form(vec, self.p)
        for pos in cell.basis_positions:
            if nf[pos]:
                out[self.basis_index[cell.paths[pos]]] = nf[pos]
        return out

    def _product_table(self) -> np.ndarray:
        """Read-only table whose [i, j] entry is the class of
        basis[i] . basis[j]: traverse basis[j], then basis[i]."""
        table = np.zeros((self.dim, self.dim, self.dim), dtype=np.int64)
        for (i, bi), (j, bj) in itertools.product(enumerate(self.basis),
                                                  repeat=2):
            if bj.end_in(self.quiver) == bi.start:
                table[i, j] = self.class_of(
                    Path(bj.start, bj.arrows + bi.arrows))
        table.flags.writeable = False
        return table

    def _transported_table(self, op: Algebra) -> np.ndarray:
        """The product table of the opposite algebra op, read off this
        one's.  Column k of R is the class in A of the k-th basis path of
        op reversed; reversal is an anti-isomorphism, so
        op[i, j] = R^-1 T(R e_j, R e_i), and R is invertible
        (``linalg.invert`` raises otherwise)."""
        p, d = self.p, self.dim
        q = op.quiver
        r = np.array([self.class_of(Path(path.end_in(q), path.arrows[::-1]))
                      for path in op.basis],
                     dtype=np.int64).reshape(len(op.basis), d).T
        r_inv = linalg.invert(r, p)
        # u[a, i, c] = T(e_a, R e_i)[c]
        u = linalg.matmul(self._products.transpose(0, 2, 1).reshape(d * d, d),
                          r, p).reshape(d, d, d).transpose(0, 2, 1)
        # x[j, i, c] = T(R e_j, R e_i)[c]
        x = linalg.matmul(r.T, u.reshape(d, d * d), p)
        # table[i, j] = R^-1 x[j, i]
        table = linalg.matmul(x.reshape(d * d, d), r_inv.T, p)
        table = table.reshape(d, d, d).transpose(1, 0, 2).copy()
        table.flags.writeable = False
        return table

    def mult(self, i: int, j) -> np.ndarray:
        """Class of basis[i] . basis[j], read-only; for a list of indices
        j, a copy with one row per index."""
        return self._products[i, j]

    def _check_associativity(self):
        """Exact associativity test on dim^2 * (|Q0| + |Q1|) triples.

        The z with (xy)z = x(yz) for all x, y form a subalgebra, so testing
        z over the vertex and arrow classes suffices once those generate
        the table: every basis path must be the table product of its
        arrows, taken one at a time (a prefix of a basis path need not be
        a basis path under non-monomial relations)."""
        q = self.quiver
        arrow_basis = [self.basis_index[Path(a.source, (ai,))]
                       for ai, a in enumerate(q.arrows)]
        for b, path in enumerate(self.basis):
            if not path.arrows:
                continue
            vec = np.zeros(self.dim, dtype=np.int64)
            vec[arrow_basis[path.arrows[0]]] = 1
            for ai in path.arrows[1:]:
                vec = self._mult_vec_left(arrow_basis[ai], vec)
            if vec[b] != 1 or np.count_nonzero(vec) != 1:
                raise AlgebraConstructionError(
                    f"basis path {path.label(q)} is not the product of its "
                    "arrows"
                )
        generators = [self.basis_index[Path(v, ())] for v in q.vertices]
        generators += arrow_basis
        for i, j in itertools.product(range(self.dim), repeat=2):
            for k in generators:
                left = self._mult_vec(self.mult(i, j), k)
                right = self._mult_vec_left(i, self.mult(j, k))
                if not np.array_equal(left, right):
                    raise AlgebraConstructionError(
                        "multiplication table is not associative"
                    )

    def _mult_vec(self, vec: np.ndarray, k: int) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int64)
        for idx in np.nonzero(vec)[0]:
            out = (out + vec[idx] * self.mult(int(idx), k)) % self.p
        return out

    def _mult_vec_left(self, i: int, vec: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int64)
        for idx in np.nonzero(vec)[0]:
            out = (out + vec[idx] * self.mult(i, int(idx))) % self.p
        return out

    # -- structure ----------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.quiver.vertices

    @property
    def n_vertices(self) -> int:
        return len(self.quiver.vertices)

    def radical_power(self, k: int) -> frozenset[int]:
        """Basis indices spanning J^k."""
        return frozenset(
            i for i, path in enumerate(self.basis) if path.length() >= k
        )

    def radical_filtration(self) -> list[frozenset[int]]:
        m = self.relations.nilpotency_bound
        return [self.radical_power(k) for k in range(m + 1)]

    def paths_from(self, v: str) -> list[tuple[int, Path]]:
        """Basis classes of paths with source v, in basis order."""
        return sorted(itertools.chain.from_iterable(
            self.path_groups[self.quiver.vertex_index(v)]))

    def paths_into(self, v: str) -> list[tuple[int, Path]]:
        """Basis classes of paths with target v, in basis order."""
        t = self.quiver.vertex_index(v)
        return sorted(itertools.chain.from_iterable(
            row[t] for row in self.path_groups))

    def describe(self) -> dict:
        q = self.quiver
        return {
            "field": self.p,
            "vertices": list(q.vertices),
            "arrows": [f"{a.name}: {a.source} -> {a.target}"
                       for a in q.arrows],
            "dimension": self.dim,
            "basis": [path.label(q) for path in self.basis],
            "nilpotency_bound": self.relations.nilpotency_bound,
        }


def hereditary_bound(quiver: Quiver) -> int:
    """Nilpotency bound for a relation-free acyclic quiver."""
    return quiver.longest_path_length() + 1


__all__ = [
    "Algebra",
    "AlgebraConstructionError",
    "Arrow",
    "MalformedInputError",
    "Path",
    "Quiver",
    "Relation",
    "RelationSet",
    "hereditary_bound",
]
