import numpy as np
import pytest

from siltlab.modclasses import (
    add_contains,
    gen_contains,
    left_perp0_of_gen,
    perp_contains,
    pres_contains,
    subfac_facsub,
    torsion_decompose,
    trace_and_gen,
    trace_spans,
)
from siltlab.reps import (
    direct_sum,
    projective_module,
    regular_module,
    simple_module,
)


def test_trace_of_projective_generator(a2_algebra):
    """trace of R in M is M itself."""
    alg = a2_algebra
    r = regular_module(alg)
    p2 = projective_module(alg, "2")
    spans = trace_spans(r, p2)
    assert [s.shape[1] for s in spans] == list(p2.dims)
    assert gen_contains(r, p2)


def test_trace_s2_in_p2(a2_algebra):
    """Image of all maps S2 -> P2 is zero (P2 has socle S1)."""
    alg = a2_algebra
    s2 = simple_module(alg, "2")
    p2 = projective_module(alg, "2")
    spans = trace_spans(s2, p2)
    assert all(s.shape[1] == 0 for s in spans)
    assert not gen_contains(s2, p2)


def test_gen_not_pres_for_p2_over_a2(a2_algebra):
    """S2 = P2/rad is in Gen P2, but every Add-P2 presentation of S2 has
    kernel containing S1, which is outside Gen P2 = {P2, S2}."""
    alg = a2_algebra
    p2 = projective_module(alg, "2")
    s1 = simple_module(alg, "1")
    s2 = simple_module(alg, "2")
    assert not gen_contains(p2, s1)  # S1 is the radical, not a quotient
    assert gen_contains(p2, s2)
    verdict = pres_contains(p2, s2)
    assert not verdict.verdict


def test_pres_contains_positive(a2_algebra):
    alg = a2_algebra
    p2 = projective_module(alg, "2")
    assert pres_contains(p2, p2).verdict
    s2 = simple_module(alg, "2")
    t, _, _ = direct_sum(alg, [p2, s2])
    # S2 is a summand of T, so 0 -> S2 is already an Add-T presentation
    assert pres_contains(t, s2).verdict


def test_add_contains(a2_wb):
    wb = a2_wb
    alg = wb.algebra
    i_p2 = wb.corpus.index_of("P2")
    i_s1 = wb.corpus.index_of("S1")
    p2 = wb.members[i_p2]
    doubled, _, _ = direct_sum(alg, [p2], [2])
    assert add_contains({i_p2: 1}, doubled, wb.corpus)
    assert not add_contains({i_p2: 1}, wb.members[i_s1], wb.corpus)


def test_perp_contains(a2_algebra):
    alg = a2_algebra
    p2 = projective_module(alg, "2")
    p1 = projective_module(alg, "1")
    w = perp_contains(p2, p1, {0, 1})
    assert w.verdict
    s2 = simple_module(alg, "2")
    w2 = perp_contains(s2, simple_module(alg, "1"), {1}, side="left")
    # Ext^1(S1, S2) = 0 in this orientation
    assert w2.verdict


def test_perp_bad_degrees(a2_algebra):
    alg = a2_algebra
    p2 = projective_module(alg, "2")
    from siltlab.linalg import MalformedInputError

    with pytest.raises(MalformedInputError):
        perp_contains(p2, p2, set())


def test_left_perp0_of_gen(a2_wb):
    wb = a2_wb
    p2 = wb.members[wb.corpus.index_of("P2")]
    # Gen P2 = {P2, S2}; every corpus member maps nontrivially into one
    # of them (S1 embeds as the socle of P2), so the left perp is empty —
    # which is exactly the sincerity of P2
    gen = [j for j, g in enumerate(wb.members) if gen_contains(p2, g)]
    perp = left_perp0_of_gen(gen, wb.corpus)
    assert perp == []


def test_torsion_decomposition(a2_wb):
    wb = a2_wb
    alg = wb.algebra
    p2 = wb.members[wb.corpus.index_of("P2")]
    s2 = simple_module(alg, "2")
    m, _, _ = direct_sum(alg, [s2, wb.members[wb.corpus.index_of("S1")]])
    out = torsion_decompose(p2, m, presilting_verified=True)
    assert out["warning"] is None
    assert out["torsion_in_gen"]
    assert out["quotient_hom_free"]
    # torsion part is the S2 summand (a quotient of P2), the torsion-free
    # quotient is the S1 part, which P2 cannot map onto
    assert out["torsion"].dims == (0, 1)
    assert out["quotient"].dims == (1, 0)
    out2 = torsion_decompose(p2, m)
    assert out2["warning"] is not None


def test_subfac_facsub_witnesses(a2_algebra):
    alg = a2_algebra
    p2 = projective_module(alg, "2")
    for v in alg.vertices:
        s = simple_module(alg, v)
        in_subfac, in_facsub, data = subfac_facsub(p2, s)
        assert in_subfac and in_facsub
        assert data["vertex"] == v
    s1 = simple_module(alg, "1")
    s2 = simple_module(alg, "2")
    in_subfac, in_facsub, _ = subfac_facsub(s1, s2)
    assert not in_subfac and not in_facsub


def test_trace_and_gen_consistency(a3_wb):
    wb = a3_wb
    for t in wb.members:
        for m in wb.members:
            (sub, incl), flag = trace_and_gen(t, m)
            assert flag == gen_contains(t, m)
            assert incl.is_mono()
