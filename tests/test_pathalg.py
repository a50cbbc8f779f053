import itertools

import numpy as np
import pytest
from test_corpus import CYCLE2_LENGTH4_F257

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


@pytest.mark.parametrize("build", [
    lambda: zoo.linear_an(4, 3), zoo.nakayama_a3, zoo.cyclic_nakayama_2,
    zoo.a2,
], ids=["linear_a4_f3", "nakayama_a3", "cycle2", "a2"])
def test_associativity_check_catches_a_perturbed_product(build):
    """Adding 1 to the e_1 coordinate of e_1 . e_1 breaks associativity
    (e_1 . e_1 is no longer idempotent), and the check must say so."""
    alg = build().build()
    table = alg._products.copy()
    table[0, 0, 0] = (table[0, 0, 0] + 1) % alg.p
    alg._products = table
    with pytest.raises(AlgebraConstructionError, match="not associative"):
        alg._check_associativity()


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
