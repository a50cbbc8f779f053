import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from siltlab import linalg


def random_matrix(rng, p, max_dim=8):
    m = int(rng.integers(0, max_dim + 1))
    n = int(rng.integers(0, max_dim + 1))
    return rng.integers(0, p, size=(m, n)).astype(np.int64)


def test_rank_kernel_example_f5():
    a = np.array([[1, 2], [2, 4]])
    ech = linalg.row_reduce(a, 5)
    assert ech.rank == 1
    assert ech.kernel_basis.shape == (2, 1)
    # kernel spanned by (3, 1): 1*3 + 2*1 = 5 = 0 mod 5
    k = ech.kernel_basis[:, 0]
    assert not ((a @ k) % 5).any()
    assert tuple(k) == (3, 1)


def test_identity_rref():
    ech = linalg.row_reduce(np.eye(4, dtype=np.int64), 3)
    assert ech.rank == 4
    assert ech.pivot_columns == (0, 1, 2, 3)
    assert np.array_equal(ech.rref, np.eye(4, dtype=np.int64))


def test_zero_matrix():
    ech = linalg.row_reduce(linalg.zeros(3, 2), 2)
    assert ech.rank == 0
    assert ech.kernel_basis.shape == (2, 2)


def test_non_prime_modulus_rejected():
    with pytest.raises(linalg.MalformedInputError):
        linalg.row_reduce(np.eye(2, dtype=np.int64), 4)
    with pytest.raises(linalg.MalformedInputError):
        linalg.check_prime(1)


def test_modulus_above_max_prime_rejected():
    linalg.check_prime(linalg.MAX_PRIME)
    with pytest.raises(linalg.MalformedInputError, match="exceeds"):
        linalg.row_reduce(np.eye(2, dtype=np.int64), 65537)
    # a 19-digit prime: rejected before any trial division
    with pytest.raises(linalg.MalformedInputError, match="exceeds"):
        linalg.check_prime(10**18 + 3)


def test_matmul_exact_at_max_prime():
    p = linalg.MAX_PRIME
    rng = np.random.default_rng(1)
    cases = [
        (rng.integers(0, p, size=(40, 40)), rng.integers(0, p, size=(40, 40))),
        (np.full((2, 4096), p - 1), np.full((4096, 3), p - 1)),
    ]
    for a, b in cases:
        reference = [[sum(x * y for x, y in zip(row, col)) % p
                      for col in b.T.tolist()] for row in a.tolist()]
        assert linalg.matmul(a, b, p).tolist() == reference


def sympy_rref(a, p):
    """Row reduction by sympy over GF(p), as an int64 array in [0, p)."""
    field = GF(p)
    m, n = a.shape
    dm = DomainMatrix([[field(int(x)) for x in row] for row in a.tolist()],
                      (m, n), field)
    rref, pivots = dm.rref()
    out = np.array([[int(x) % p for x in row] for row in rref.to_list()],
                   dtype=np.int64).reshape(m, n)
    return out, tuple(pivots)


@pytest.mark.parametrize("p", [2, 3, 5, 7, linalg.MAX_PRIME])
def test_row_reduce_matches_sympy(p):
    rng = np.random.default_rng(777 + p)
    for trial in range(300):
        a = random_matrix(rng, p)
        if trial % 2 and a.size:
            # rank-deficient: a product through a thin middle dimension
            k = int(rng.integers(0, min(a.shape) + 1))
            a = (rng.integers(0, p, size=(a.shape[0], k))
                 @ rng.integers(0, p, size=(k, a.shape[1]))) % p
        ech = linalg.row_reduce(a, p)
        rref, pivots = sympy_rref(a, p)
        assert ech.rref.tobytes() == rref.tobytes()
        assert ech.rref.shape == rref.shape
        assert ech.pivot_columns == pivots
        assert ech.rank == len(pivots)


def test_row_reduce_accepts_int_rows():
    a = np.array([[1, 2, 4], [2, 4, 1], [0, 0, 6]])
    from_rows = linalg.row_reduce([[int(x) for x in row] for row in a], 5)
    from_array = linalg.row_reduce(a, 5)
    assert from_rows.rref.tobytes() == from_array.rref.tobytes()
    assert from_rows.pivot_columns == from_array.pivot_columns
    with pytest.raises(linalg.MalformedInputError):
        linalg.row_reduce([[1, 2], [3]], 5)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes(shape):
    m, n = shape
    a = linalg.zeros(m, n)
    ech = linalg.row_reduce(a, 3)
    assert (ech.rank, ech.pivot_columns) == (0, ())
    assert ech.rref.shape == (m, n)
    assert np.array_equal(linalg.kernel(a, 3), np.eye(n, dtype=np.int64))
    assert linalg.column_space_basis(a, 3).shape == (m, 0)
    sol = linalg.solve(a, linalg.zeros(m, 2), 3)
    assert sol.shape == (n, 2) and not sol.any()
    if m:
        assert linalg.solve(a, np.ones(m, dtype=np.int64), 3) is None
    if m == n:
        assert linalg.invert(a, 3).shape == (0, 0)
    else:
        with pytest.raises(linalg.MalformedInputError):
            linalg.invert(a, 3)


def test_solve_inconsistent():
    a = np.array([[1, 0], [1, 0]])
    b = np.array([1, 2])
    assert linalg.solve(a, b, 5) is None


def test_solve_particular_and_kernel():
    a = np.array([[1, 1, 0], [0, 1, 1]])
    b = np.array([2, 1])
    sol = linalg.solve(a, b, 3)
    assert sol is not None
    assert np.array_equal((a @ sol[:, 0]) % 3, b % 3)
    kernel = linalg.kernel(a, 3)
    assert kernel.shape == (3, 1)
    for k in range(kernel.shape[1]):
        shifted = (sol[:, 0] + kernel[:, k]) % 3
        assert np.array_equal((a @ shifted) % 3, b % 3)


def test_invert_and_singular():
    a = np.array([[1, 1], [0, 1]])
    inv = linalg.invert(a, 2)
    assert np.array_equal((a @ inv) % 2, np.eye(2, dtype=np.int64))
    with pytest.raises(linalg.MalformedInputError):
        linalg.invert(np.array([[1, 1], [1, 1]]), 2)


def test_column_space_basis_canonical():
    a = np.array([[1, 2], [2, 4], [0, 0]])
    b = np.array([[2], [4], [0]])  # same span over F5
    ca = linalg.column_space_basis(a, 5)
    cb = linalg.column_space_basis(b, 5)
    assert ca.tobytes() == cb.tobytes()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_nullity_randomized(p):
    rng = np.random.default_rng(12345 + p)
    for _ in range(1000):
        a = random_matrix(rng, p)
        ech = linalg.row_reduce(a, p)
        assert ech.rank + ech.kernel_basis.shape[1] == a.shape[1]
        # kernel columns actually lie in the kernel and are independent
        if ech.kernel_basis.shape[1]:
            assert not ((a @ ech.kernel_basis) % p).any()
            assert linalg.rank(ech.kernel_basis, p) == \
                ech.kernel_basis.shape[1]


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 6), st.integers(1, 6),
    st.integers(0, 10**9),
)
@settings(max_examples=120)
def test_rank_transpose_invariance(p, m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(m, n)).astype(np.int64)
    assert linalg.rank(a, p) == linalg.rank(a.T, p)


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
    st.integers(0, 10**9),
)
@settings(max_examples=120)
def test_matmul_rank_bound(p, m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(m, k)).astype(np.int64)
    b = rng.integers(0, p, size=(k, n)).astype(np.int64)
    r = linalg.rank(linalg.matmul(a, b, p), p)
    assert r <= min(linalg.rank(a, p), linalg.rank(b, p))


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 6), st.integers(1, 6),
    st.integers(0, 10**9),
)
@settings(max_examples=120)
def test_row_reduce_idempotent(p, m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(m, n)).astype(np.int64)
    once = linalg.row_reduce(a, p)
    twice = linalg.row_reduce(once.rref, p)
    assert np.array_equal(once.rref, twice.rref)
    assert once.pivot_columns == twice.pivot_columns


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 5),
    st.integers(0, 10**9),
)
@settings(max_examples=80)
def test_solve_round_trip(p, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(n, n)).astype(np.int64)
    x = rng.integers(0, p, size=(n, 1)).astype(np.int64)
    b = (a @ x) % p
    sol = linalg.solve(a, b, p)
    assert sol is not None
    assert np.array_equal((a @ sol) % p, b)


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 10**9),
)
@settings(max_examples=80)
def test_basis_complement_of_random_spans(p, dim, k, seed):
    rng = np.random.default_rng(seed)
    # a product through k columns gives spans of every rank up to k
    gens = (rng.integers(0, p, size=(dim, k))
            @ rng.integers(0, p, size=(k, 4))) % p
    span = linalg.column_space_basis(gens, p)
    comp, change = linalg.basis_complement(span)
    assert np.array_equal(change, np.hstack([span, comp]))
    assert linalg.rank(change, p) == dim == change.shape[1]
    # the complement is the standard vectors at the non-pivot coordinates
    pivots = linalg.row_reduce(span.T, p).pivot_columns
    free = [c for c in range(dim) if c not in pivots]
    assert np.array_equal(comp, np.eye(dim, dtype=np.int64)[:, free])


@given(
    st.sampled_from([2, 3, 5, 257]),
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
    st.integers(0, 6), st.integers(0, 6),
    st.integers(0, 10**9),
)
@settings(max_examples=120)
def test_image_meets_kernel_in_three_ranks(p, d, k, o, r_in, r_out, seed):
    """For In (d x k) and Out (o x d), im In meets ker Out in
    In(ker Out.In), of dimension rank In - rank(Out.In), which is also
    rank In + nullity Out - rank [In | ker Out].  Products through r
    columns give every rank up to r, even over F257."""
    rng = np.random.default_rng(seed)
    into = (rng.integers(0, p, size=(d, r_in))
            @ rng.integers(0, p, size=(r_in, k))) % p
    out = (rng.integers(0, p, size=(o, r_out))
           @ rng.integers(0, p, size=(r_out, d))) % p
    ker_out = linalg.kernel(out, p)
    rank_in = linalg.rank(into, p)
    assert (rank_in - linalg.rank(linalg.matmul(out, into, p), p)
            == rank_in + ker_out.shape[1]
            - linalg.rank(np.hstack([into, ker_out]), p))
