"""Exact dense linear algebra over prime fields F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p), and p is
at most MAX_PRIME, so a product of two reduced matrices cannot overflow
int64.  Elimination itself runs on rows of Python ints, which is exact for
any p.  Every routine is deterministic: pivoting always picks the leftmost
nonzero column and the first row carrying a nonzero entry, so results are
reproducible bit-for-bit.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class MalformedInputError(ValueError):
    """Raised on shape mismatches or non-field moduli."""


# The largest supported modulus: the largest prime below 2**16.  For p at
# most this, (p - 1)**2 * k < 2**63 for every inner dimension k < 2**31, so
# int64 matrix products of reduced entries are exact.
MAX_PRIME = 65521

_SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}


def is_prime(p: int) -> bool:
    if p in _SMALL_PRIMES:
        return True
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


def check_prime(p: int) -> None:
    if p > MAX_PRIME:
        raise MalformedInputError(
            f"modulus {p} exceeds the supported maximum {MAX_PRIME}")
    if not is_prime(p):
        raise MalformedInputError(f"modulus {p} is not prime")


def reduce_mod(a, p: int) -> np.ndarray:
    """Coerce to an int64 array with entries in [0, p)."""
    return np.asarray(a, dtype=np.int64) % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise MalformedInputError(f"cannot multiply {a.shape} by {b.shape}")
    return (a @ b) % p


# ---------------------------------------------------------------------------
# elimination on rows of Python ints


def _int_rows(a, p: int) -> tuple[list[list[int]], int]:
    """Rows of a 2-d input as lists of ints in [0, p), with the column
    count.  A nonempty list of lists of Python ints is read directly;
    anything else goes through numpy, which also carries the column count
    of an input with no rows."""
    if isinstance(a, list) and a and isinstance(a[0], list):
        n = len(a[0])
        rows = [[x % p for x in row] for row in a]
        if any(len(row) != n for row in rows):
            raise MalformedInputError("ragged rows")
        return rows, n
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim != 2:
        raise MalformedInputError("expected a 2-d array")
    return (arr % p).tolist(), arr.shape[1]


def _eliminate(rows: list[list[int]], p: int, limit: int) -> list[int]:
    """Gauss-Jordan elimination in place; returns the pivot columns.

    Pivots are sought only in columns [0, limit): the leftmost column with
    a nonzero entry at or below the current row, and the first such row.
    Only rows nonzero in the pivot column are updated.
    """
    m = len(rows)
    pivots: list[int] = []
    row = 0
    for col in range(limit):
        if row == m:
            break
        for i in range(row, m):
            if rows[i][col]:
                break
        else:
            continue
        if i != row:
            rows[row], rows[i] = rows[i], rows[row]
        pivot = rows[row]
        if pivot[col] != 1:
            inv = pow(pivot[col], p - 2, p)
            pivot = rows[row] = [x * inv % p for x in pivot]
        for j in range(m):
            f = rows[j][col]
            if f and j != row:
                rows[j] = [(x - f * y) % p for x, y in zip(rows[j], pivot)]
        pivots.append(col)
        row += 1
    return pivots


def _array(rows: list[list[int]], m: int, n: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(m, n)


def _kernel_basis(rows, pivots, n: int, p: int) -> np.ndarray:
    """Null space basis of the first n columns of a reduced matrix: one
    column per free column c, with 1 at c and minus the rref entries of
    column c at the pivot positions."""
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = [[0] * len(free) for _ in range(n)]
    for k, c in enumerate(free):
        basis[c][k] = 1
        for i, pc in enumerate(pivots):
            basis[pc][k] = -rows[i][c] % p
    return _array(basis, n, len(free))


class EchelonData:
    """Reduced row-echelon data of a matrix A over F_p.

    kernel_basis has one column per free column of A.  Everything past
    rank and pivot_columns is built on first read.
    """

    def __init__(self, reduced, n: int, pivots, p: int):
        self._reduced = reduced  # rows of rref
        self._n = n
        self.rank = len(pivots)
        self.pivot_columns = tuple(pivots)
        self.modulus = p

    @cached_property
    def rref(self) -> np.ndarray:
        return _array(self._reduced, len(self._reduced), self._n)

    @cached_property
    def kernel_basis(self) -> np.ndarray:  # cols x (cols - rank)
        return _kernel_basis(self._reduced, self.pivot_columns, self._n,
                             self.modulus)


def row_reduce(a, p: int) -> EchelonData:
    """Gauss-Jordan elimination with deterministic pivoting.

    a is a 2-d array, or a nonempty list of equally long lists of Python
    ints.
    """
    check_prime(p)
    rows, n = _int_rows(a, p)
    pivots = _eliminate(rows, p, n)
    return EchelonData(rows, n, pivots, p)


def rank(a, p: int) -> int:
    return row_reduce(a, p).rank


def kernel(a, p: int) -> np.ndarray:
    """Columns form a basis of the right null space."""
    return row_reduce(a, p).kernel_basis


def solve(a, b, p: int) -> np.ndarray | None:
    """A particular solution X of A X = B; None when inconsistent.

    Eliminates [A | B] pivoting in A only: the system is consistent when
    the rows past the rank vanish on B, and then the B part of the pivot
    rows is the solution, zero at the free columns.
    """
    check_prime(p)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise MalformedInputError(f"row mismatch: {a.shape} vs {b.shape}")
    n, k = a.shape[1], b.shape[1]
    rows = (np.hstack([a, b]) % p).tolist()
    pivots = _eliminate(rows, p, n)
    if any(any(row[n:]) for row in rows[len(pivots):]):
        return None
    x = [[0] * k for _ in range(n)]
    for i, c in enumerate(pivots):
        x[c] = rows[i][n:]
    return _array(x, n, k)


def column_space_basis(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis of the column span: rref rows of the transpose,
    returned as columns.  Two matrices with equal column spans yield
    byte-identical output."""
    ech = row_reduce(np.asarray(a).T, p)
    return ech.rref[: ech.rank].T.copy()


def basis_complement(span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard vectors completing a canonical span to a basis.

    ``span`` is a column_space_basis output, so the pivot of its column k
    is that column's first nonzero entry.  Returns the standard vectors at
    the other coordinates, as columns, and the invertible change-of-basis
    matrix [span | complement].
    """
    dim, r = span.shape
    pivots = {int(np.flatnonzero(span[:, k])[0]) for k in range(r)}
    free = [c for c in range(dim) if c not in pivots]
    comp = zeros(dim, len(free))
    comp[free, range(len(free))] = 1
    return comp, np.hstack([span, comp])


def invert(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix, by eliminating [A | I]."""
    check_prime(p)
    a = np.asarray(a, dtype=np.int64)
    n, m = a.shape
    if n != m:
        raise MalformedInputError("only square matrices are invertible")
    aug = [row + [int(i == j) for j in range(n)]
           for i, row in enumerate((a % p).tolist())]
    if len(_eliminate(aug, p, n)) != n:
        raise MalformedInputError("matrix is singular")
    return _array([row[n:] for row in aug], n, n)
