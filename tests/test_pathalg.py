import copy
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import count_calls
from test_corpus import CYCLE2_LENGTH4_F257, parsed_algebra

from siltlab import zoo
from siltlab.algfile import parse_algebra_file
from siltlab.pathalg import (
    Algebra,
    AlgebraConstructionError,
    Arrow,
    Path,
    Quiver,
    RelationSet,
    hereditary_bound,
)


def test_a2_basis(a2_algebra):
    labels = [p.label(a2_algebra.quiver) for p in a2_algebra.basis]
    assert labels == ["e_1", "e_2", "alpha"]
    assert a2_algebra.dim == 3


def test_a3_quotient_dimension(nak3_algebra):
    # paths: e1, e2, e3, alpha, beta; alpha*beta killed
    assert nak3_algebra.dim == 5
    labels = {p.label(nak3_algebra.quiver) for p in nak3_algebra.basis}
    assert labels == {"e_1", "e_2", "e_3", "alpha", "beta"}


def test_linear_a3_hereditary_dim(a3_algebra):
    # e1,e2,e3, a1, a2, a1*a2
    assert a3_algebra.dim == 6


def test_mult_convention(a2_algebra):
    alg = a2_algebra
    e1 = alg.basis_index[Path("1", ())]
    e2 = alg.basis_index[Path("2", ())]
    al = alg.basis_index[Path("2", (0,))]
    # alpha = e1 . alpha . e2 in function order (traverse alpha, land at 1)
    assert alg.mult(e1, al)[al] == 1
    assert not alg.mult(al, e1).any()
    assert alg.mult(al, e2)[al] == 1
    assert not alg.mult(e2, al).any()
    # idempotents are orthogonal
    assert not alg.mult(e1, e2).any()
    assert alg.mult(e1, e1)[e1] == 1


@pytest.mark.parametrize("build", [
    *zoo.STANDARD_FILES.values(),
    lambda: zoo.linear_an(5, 3),
    lambda: parse_algebra_file(CYCLE2_LENGTH4_F257),
], ids=[*zoo.STANDARD_FILES, "linear_a5_f3", "cycle2_length4_f257"])
def test_product_table_is_the_per_pair_normal_form(build):
    """Entry [i, j] is the class of the path basis[j] then basis[i] when
    they compose (class_of is zero at and past the nilpotency bound), and
    zero when they do not.  The table is read-only, so a caller that
    writes into a product cannot corrupt it."""
    alg = build().build()
    for (i, bi), (j, bj) in itertools.product(enumerate(alg.basis),
                                              repeat=2):
        if bj.end_in(alg.quiver) == bi.start:
            expected = alg.class_of(Path(bj.start, bj.arrows + bi.arrows))
        else:
            expected = np.zeros(alg.dim, dtype=np.int64)
        assert np.array_equal(alg.mult(i, j), expected)
    with pytest.raises(ValueError):
        alg.mult(0, 0)[0] = 1


@pytest.mark.parametrize("build", zoo.STANDARD_FILES.values(),
                         ids=zoo.STANDARD_FILES)
def test_shipped_algebras_are_associative(build):
    build().build()._check_associativity()


def _perturbed(alg, i, j, k, delta):
    """A copy of alg whose product table has delta added to entry
    [i, j, k] mod p."""
    alg = copy.copy(alg)
    table = alg._products.copy()
    table[i, j, k] = (table[i, j, k] + delta) % alg.p
    alg._products = table
    return alg


@pytest.mark.parametrize("build", [
    lambda: zoo.linear_an(4, 3), zoo.nakayama_a3, zoo.cyclic_nakayama_2,
    zoo.a2, lambda: zoo.linear_an(5, 3),
], ids=["linear_a4_f3", "nakayama_a3", "cycle2", "a2", "linear_a5_f3"])
def test_associativity_check_catches_a_perturbed_product(build):
    """Adding 1 to the e_1 coordinate of e_1 . e_1 breaks associativity
    (e_1 . e_1 is no longer idempotent), and the check must say so, also
    on linear A5 (dimension 15), which an earlier dim^3 check skipped."""
    alg = _perturbed(build().build(), 0, 0, 0, 1)
    with pytest.raises(AlgebraConstructionError, match="not associative"):
        alg._check_associativity()


def _associative_reference(alg) -> bool:
    """All dim^3 triples at once: (b_i b_j) b_k against b_i (b_j b_k)."""
    t = alg._products
    left = np.einsum("ijl,lkm->ijkm", t, t) % alg.p
    right = np.einsum("jkl,ilm->ijkm", t, t) % alg.p
    return np.array_equal(left, right)


def _paths_reference(alg) -> bool:
    """Every basis path of length >= 1 is the product of its arrows, folded
    from the last-traversed arrow by multiplying on the right (the check
    folds on the left; the two agree on an associative table)."""
    q = alg.quiver
    for b, path in enumerate(alg.basis):
        if not path.arrows:
            continue
        classes = [alg.basis_index[Path(q.arrows[ai].source, (ai,))]
                   for ai in path.arrows]
        vec = np.zeros(alg.dim, dtype=np.int64)
        vec[classes[-1]] = 1
        for k in reversed(classes[:-1]):
            vec = (vec @ alg._products[:, k, :]) % alg.p
        expected = np.zeros(alg.dim, dtype=np.int64)
        expected[b] = 1
        if not np.array_equal(vec, expected):
            return False
    return True


_CHECKED = {**zoo.STANDARD_FILES, "linear_a5_f3": lambda: zoo.linear_an(5, 3)}
_BUILT = {}


def _built(name):
    if name not in _BUILT:
        _BUILT[name] = _CHECKED[name]().build()
    return _BUILT[name]


@st.composite
def _perturbations(draw):
    """A shipped algebra or A5/F3, an entry of its table, and an amount
    0..p-1 to add to it (0 leaves the table as built)."""
    name = draw(st.sampled_from(sorted(_CHECKED)))
    alg = _built(name)
    entry = tuple(draw(st.integers(0, alg.dim - 1)) for _ in range(3))
    return name, entry, draw(st.integers(0, alg.p - 1))


@settings(max_examples=150)
@given(_perturbations())
def test_check_raises_iff_the_dim_cubed_reference_fails(drawn):
    """The generator check raises exactly when a plain test of all dim^3
    triples, or of every basis path against its arrows, finds a fault."""
    name, entry, delta = drawn
    alg = _perturbed(_built(name), *entry, delta)
    if _associative_reference(alg) and _paths_reference(alg):
        alg._check_associativity()
    else:
        with pytest.raises(AlgebraConstructionError):
            alg._check_associativity()


@pytest.mark.parametrize("delta", [1, 2])
def test_check_catches_an_associative_table_with_a_wrong_path(delta):
    """On A3 over F3, a1 . a2 = a1*a2 is entry [3, 4, 5]; changing it keeps
    the table associative, but a1*a2 is no longer the product of its
    arrows, which a test of the dim^3 triples alone would accept."""
    alg = _perturbed(zoo.linear_an(3, 3).build(), 3, 4, 5, delta)
    assert [path.label(alg.quiver) for path in alg.basis[3:]] == [
        "a1", "a2", "a1*a2"]
    assert _associative_reference(alg)
    assert not _paths_reference(alg)
    with pytest.raises(AlgebraConstructionError,
                       match=r"basis path a1\*a2 is not the product"):
        alg._check_associativity()


# A commutative square over F5 whose relation carries the coefficient 2.
# Its arrow order makes A keep the path d*c through 3 in its basis and
# A^op the reversed path through 2, whose class in A is b*a = 2 d*c.
SQUARE_2_F5 = """field 5
vertices 1 2 3 4
arrow a: 1 -> 2
arrow c: 1 -> 3
arrow d: 3 -> 4
arrow b: 2 -> 4
relation b*a - 2*d*c
"""

_OPPOSITE_INPUTS = {
    **zoo.STANDARD_FILES,
    "linear_a5_f3": lambda: zoo.linear_an(5, 3),
    **{name: functools.partial(parsed_algebra, None, name)
       for name in ["signed_square_f5", "cycle2_length3_f2",
                    "cyclic_nakayama_2_f3"]},
    "square_2_f5": lambda: parse_algebra_file(SQUARE_2_F5),
}


def _reversal(alg, op):
    """R: column k is the class in A of op's k-th basis path reversed."""
    q = op.quiver
    return np.stack([alg.class_of(Path(path.end_in(q), path.arrows[::-1]))
                     for path in op.basis], axis=1)


@pytest.mark.parametrize("name", _OPPOSITE_INPUTS)
def test_opposite_table_is_built_from_scratch_one(monkeypatch, name):
    """A^op's table is transported from A's, with no associativity check,
    and equals the table of an algebra built from scratch on the reversed
    quiver and relations, entry by entry, over the same path basis.  The
    reversal matrix R is a permutation except on the F5 square, the one
    input where R^-1 differs from R^T."""
    alg = _OPPOSITE_INPUTS[name]().build()
    q = alg.quiver
    checks = count_calls(monkeypatch, Algebra, "_check_associativity")
    op = alg.opposite
    assert checks == []
    monkeypatch.undo()
    scratch = Algebra(
        Quiver(q.vertices,
               tuple(Arrow(a.name, a.target, a.source) for a in q.arrows)),
        RelationSet(tuple(tuple((c, Path(path.end_in(q), path.arrows[::-1]))
                                for c, path in rel)
                          for rel in alg.relations.relations),
                    alg.relations.nilpotency_bound),
        alg.p)
    assert op.basis == scratch.basis
    assert np.array_equal(op._products, scratch._products)
    assert op.opposite is alg
    with pytest.raises(ValueError):
        op.mult(0, 0)[0] = 1
    r = _reversal(alg, op)
    permutation = (np.isin(r, (0, 1)).all() and (r.sum(axis=0) == 1).all()
                   and (r.sum(axis=1) == 1).all())
    assert permutation == (name != "square_2_f5")


def test_identity_element(a3_algebra):
    alg = a3_algebra
    one = np.zeros(alg.dim, dtype=np.int64)
    for v in alg.vertices:
        one[alg.basis_index[Path(v, ())]] = 1
    for i in range(alg.dim):
        left = np.zeros(alg.dim, dtype=np.int64)
        for j in np.nonzero(one)[0]:
            left = (left + alg.mult(int(j), i)) % alg.p
        e = np.zeros(alg.dim, dtype=np.int64)
        e[i] = 1
        assert np.array_equal(left, e)


def test_radical_filtration(a3_algebra):
    filt = a3_algebra.radical_filtration()
    sizes = [len(s) for s in filt]
    # J^0 = everything (6), J^1 = paths of length >= 1 (3), J^2 = 1, J^3 = 0
    assert sizes == [6, 3, 1, 0]


def test_relation_killed_in_quotient(nak3_algebra):
    alg = nak3_algebra
    long_path = Path("3", (1, 0))  # traverse beta, then alpha
    assert not alg.class_of(long_path).any()


def test_non_admissible_rejected():
    # a cycle with no nilpotency high enough is inadmissible at the bound
    quiver = Quiver(("1", "2"),
                    (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
    with pytest.raises(AlgebraConstructionError):
        Algebra(quiver, RelationSet((), 3), 2)


def test_length_one_relation_rejected():
    quiver = Quiver(("1", "2"), (Arrow("a", "2", "1"),))
    rel = ((1, Path("2", (0,))),)
    with pytest.raises(AlgebraConstructionError):
        Algebra(quiver, RelationSet((rel,), 2), 2)


def test_non_parallel_relation_rejected():
    quiver = Quiver(("1", "2", "3"),
                    (Arrow("a", "2", "1"), Arrow("b", "3", "2"),
                     Arrow("c", "3", "1")))
    # a*b runs 3 -> 1 but paths must be parallel within one relation
    rel = ((1, Path("3", (1, 0))), (1, Path("2", (0,))))
    with pytest.raises(AlgebraConstructionError):
        Algebra(quiver, RelationSet((rel,), 3), 2)


def test_hereditary_bound():
    quiver = Quiver(("1", "2", "3"),
                    (Arrow("a", "2", "1"), Arrow("b", "3", "2")))
    assert hereditary_bound(quiver) == 3


def test_duplicate_names_rejected():
    with pytest.raises(AlgebraConstructionError):
        Quiver(("1", "1"), ())
    with pytest.raises(AlgebraConstructionError):
        Quiver(("1", "2"),
               (Arrow("a", "1", "2"), Arrow("a", "2", "1")))


def test_cyclic_nakayama_dim(cyc2_algebra):
    # e1, e2, a, b with J^2 = 0
    assert cyc2_algebra.dim == 4


def test_describe_round_trip(a2_algebra):
    d = a2_algebra.describe()
    assert d["dimension"] == 3
    assert d["vertices"] == ["1", "2"]
    assert d["arrows"] == ["alpha: 2 -> 1"]
