import numpy as np
import pytest

from siltlab import linalg
from siltlab.reps import (
    Morphism,
    Representation,
    composition_factors,
    direct_sum,
    factorize,
    hom_dim,
    hom_from_projective,
    hom_space,
    injective_module,
    is_isomorphic,
    jordan_holder_factors,
    projective_module,
    quotient_representation,
    regular_module,
    simple_module,
    socle_multiplicities,
    sub_quotient,
    top_multiplicities,
    validate,
    zero_representation,
)


def test_standard_modules_a2(a2_algebra):
    alg = a2_algebra
    s1 = simple_module(alg, "1")
    s2 = simple_module(alg, "2")
    p1 = projective_module(alg, "1")
    p2 = projective_module(alg, "2")
    i1 = injective_module(alg, "1")
    i2 = injective_module(alg, "2")
    assert s1.dims == (1, 0) and s2.dims == (0, 1)
    assert p1.dims == (1, 0)  # sink vertex: P1 = S1
    assert p2.dims == (1, 1)
    assert i1.dims == (1, 1)  # I1 has socle S1, top S2
    assert i2.dims == (0, 1)  # source vertex: I2 = S2
    assert is_isomorphic(i1, p2)
    assert is_isomorphic(p1, s1)


def test_hom_dims_a2(a2_algebra):
    alg = a2_algebra
    s1 = simple_module(alg, "1")
    s2 = simple_module(alg, "2")
    p2 = projective_module(alg, "2")
    # dim Hom(P(v), M) = dim M_v; S1 vanishes at vertex 2
    assert hom_dim(p2, s1) == 0
    assert hom_dim(p2, s2) == 1
    assert hom_dim(s2, p2) == 0  # S2 cannot embed: P2 has simple socle S1
    assert hom_dim(p2, p2) == 1
    assert hom_dim(s1, p2) == 1


def test_yoneda_identity(a3_algebra):
    alg = a3_algebra
    for v in alg.vertices:
        pv = projective_module(alg, v)
        vi = alg.quiver.vertex_index(v)
        for w in alg.vertices:
            m = injective_module(alg, w)
            assert hom_dim(pv, m) == m.dims[vi]


def test_hom_from_projective_realization(a3_algebra):
    alg = a3_algebra
    m = regular_module(alg)
    for v in alg.vertices:
        pv = projective_module(alg, v)
        vi = alg.quiver.vertex_index(v)
        for k in range(m.dims[vi]):
            x = np.zeros(m.dims[vi], dtype=np.int64)
            x[k] = 1
            f = hom_from_projective(alg, v, pv, m, x)
            assert f.is_natural()


def test_factorize_ses(a2_algebra):
    """0 -> S1 -> P2 -> S2 -> 0."""
    alg = a2_algebra
    p2 = projective_module(alg, "2")
    s2 = simple_module(alg, "2")
    basis = hom_space(p2, s2)
    assert len(basis) == 1
    parts = factorize(basis[0])
    assert parts["kernel"].dims == (1, 0)
    assert parts["cokernel"].dims == (0, 0)
    assert parts["image"].dims == (0, 1)
    assert parts["kernel_inclusion"].is_mono()
    assert parts["cokernel_projection"].is_epi()


def test_direct_sum_hom_additivity(a3_wb):
    wb = a3_wb
    alg = wb.algebra
    members = wb.members
    for i in range(len(members)):
        for j in range(len(members)):
            summed, _, _ = direct_sum(alg, [members[i], members[j]])
            assert hom_dim(summed, members[0]) == (
                hom_dim(members[i], members[0])
                + hom_dim(members[j], members[0])
            )


def test_morphism_naturality_enforced(a2_algebra):
    alg = a2_algebra
    p2 = projective_module(alg, "2")
    for f in hom_space(p2, p2):
        assert f.is_natural()
    # a non-natural family is not in the hom space
    bad = Morphism(p2, p2, [np.array([[0]]), np.array([[1]])])
    assert not bad.is_natural()


def test_sub_quotient_top_socle(a3_algebra):
    alg = a3_algebra
    p3 = projective_module(alg, "3")  # uniserial 3 / 2 / 1
    assert top_multiplicities(p3) == [0, 0, 1]
    assert socle_multiplicities(p3) == [1, 0, 0]
    # submodule generated by the vector at vertex 2: radical of P3 shape
    x = np.zeros(p3.total_dim, dtype=np.int64)
    offset = sum(p3.dims[:1])
    x[offset] = 1
    sub, incl = sub_quotient(p3, [x], "submodule")
    assert sub.dims == (1, 1, 0)
    assert incl.is_mono()
    quot, proj = sub_quotient(p3, [x], "quotient")
    assert quot.dims == (0, 0, 1)
    assert proj.is_epi()


def test_composition_factors_against_oracle(a3_wb, nak3_wb):
    for wb in (a3_wb, nak3_wb):
        for m in wb.members:
            assert composition_factors(m) == jordan_holder_factors(m)


def test_validate_detects_relation_violation(nak3_algebra):
    alg = nak3_algebra
    dims = (1, 1, 1)
    maps = [np.array([[1]]), np.array([[1]])]  # alpha . beta acts nonzero
    rep = Representation(alg, dims, maps)
    problems = validate(rep)
    assert problems and "relation" in problems[0]


def test_is_isomorphic_negative(a2_algebra):
    alg = a2_algebra
    p2 = projective_module(alg, "2")
    s1s2, _, _ = direct_sum(alg, [simple_module(alg, "1"),
                                  simple_module(alg, "2")])
    assert p2.dims == s1s2.dims
    assert not is_isomorphic(p2, s1s2)


def test_zero_representation(a2_algebra):
    z = zero_representation(a2_algebra)
    assert z.is_zero()
    assert hom_dim(z, z) == 0


def test_quotient_by_everything(a2_algebra):
    alg = a2_algebra
    p2 = projective_module(alg, "2")
    spans = [linalg.identity(d) for d in p2.dims]
    quot, proj = quotient_representation(p2, spans)
    assert quot.is_zero()


def test_hom_cache_survives_id_reuse(a2_algebra):
    """A freed target's id may be reused by a new module; the cached Hom
    of the old target must not be returned for it."""
    s1 = simple_module(a2_algebra, "1")
    wrong = 0
    for _ in range(2000):
        s2 = simple_module(a2_algebra, "2")
        assert hom_dim(s1, s2) == 0
        del s2
        wrong += hom_dim(s1, simple_module(a2_algebra, "1")) != 1
    assert wrong == 0
