import functools
import math

import numpy as np
import pytest
from conftest import whole_sum

from siltlab import linalg, modclasses, zoo
from siltlab.harness import load_workbench
from siltlab.modclasses import (
    SEARCH_CAP,
    MembershipWitness,
    add_contains,
    gen_contains,
    left_perp0_of_gen,
    perp_contains,
    pres_contains,
    subfac_facsub,
    torsion_decompose,
    trace_spans,
)
from siltlab.reps import (
    Morphism,
    UndecidableError,
    direct_sum,
    factorize,
    hom_space,
    projective_module,
    regular_module,
    simple_module,
    sub_representation,
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
    verdict = pres_contains([p2], s2)
    assert not verdict.verdict


def test_pres_contains_positive(a2_algebra):
    alg = a2_algebra
    p2 = projective_module(alg, "2")
    assert pres_contains([p2], p2).verdict
    s2 = simple_module(alg, "2")
    # S2 is a summand of T, so 0 -> S2 is already an Add-T presentation
    assert pres_contains([p2, s2], s2).verdict


def test_add_contains(a2_wb):
    wb = a2_wb
    alg = wb.algebra
    i_p2 = wb.corpus.index_of("P2")
    i_s1 = wb.corpus.index_of("S1")
    p2 = wb.members[i_p2]
    doubled = direct_sum(alg, [p2], [2])
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
    m = direct_sum(alg, [s2, wb.members[wb.corpus.index_of("S1")]])
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
            sub, incl = sub_representation(m, trace_spans(t, m))
            assert (sub.dims == m.dims) == gen_contains(t, m)
            assert incl.is_mono()


# ---------------------------------------------------------------------------
# whole-sum reference for Pres membership


def _whole_sum_evaluation(t, m, coefficients):
    """Map T^r -> M whose columns are the given combinations of the
    Hom(T, M) basis; coefficients has shape (dim Hom, r)."""
    alg = m.algebra
    basis = hom_space(t, m)
    r = coefficients.shape[1]
    total = direct_sum(alg, [t], [r])
    maps = []
    for vi in range(alg.n_vertices):
        cols = []
        for j in range(r):
            acc = linalg.zeros(m.dims[vi], t.dims[vi])
            for i, f in enumerate(basis):
                c = int(coefficients[i, j])
                if c:
                    acc = (acc + c * f.vertex_maps[vi]) % alg.p
            cols.append(acc)
        maps.append(np.hstack(cols) if cols
                    else linalg.zeros(m.dims[vi], 0))
    return Morphism(total, m, maps)


def _whole_sum_pres_contains(t, m, cap=SEARCH_CAP):
    """Pres membership on the whole sum T: factorize T^d -> M (then every
    column space of coefficients, for r up to d) and test the kernel with
    gen_contains; raises at the first r with p^(d*r) > cap."""
    if m.is_zero():
        return MembershipWitness(True, {"route": "zero"})
    if not gen_contains(t, m):
        return MembershipWitness(False, {"reason": "not in Gen T"})
    d = len(hom_space(t, m))
    p = m.algebra.p
    canonical = _whole_sum_evaluation(t, m, linalg.identity(d))
    if gen_contains(t, factorize(canonical)["kernel"]):
        return MembershipWitness(True, {"route": "canonical", "copies": d})
    for r in range(1, d + 1):
        if p ** (d * r) > cap:
            raise UndecidableError("cap")
        for coeffs in _signatures(d, r, p):
            h = _whole_sum_evaluation(t, m, coeffs)
            if h.is_epi() and gen_contains(t, factorize(h)["kernel"]):
                return MembershipWitness(
                    True, {"route": "fallback", "copies": r})
    return MembershipWitness(
        False,
        {"reason": "no Add-T cover has Gen-T kernel", "copies_tried": d})


@functools.cache
def _signatures(d, r, p):
    return list(modclasses._column_space_signatures(d, r, p))


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except UndecidableError:
        return "raises"
    return result.verdict, result.witness


@pytest.fixture(scope="module")
def a3_f3_wb():
    return load_workbench(zoo.linear_an(3, 3))


@pytest.fixture(scope="module")
def a3_f257_wb():
    return load_workbench(zoo.linear_an(3, 257))


@pytest.mark.parametrize("fixture,max_summands", [
    ("a2_wb", None), ("a3_wb", None), ("nak3_wb", None), ("cyc2_wb", None),
    ("a4_wb", 2), ("a3_f3_wb", None), ("a3_f257_wb", None)])
def test_pres_contains_matches_whole_sum(request, fixture, max_summands):
    wb = request.getfixturevalue(fixture)
    for c in wb.all_candidates(max_summands):
        t = whole_sum(wb, c)
        summands = [wb.members[i] for i in c]
        for j in wb.gen_set(c):
            m = wb.members[j]
            assert (_outcome(pres_contains, summands, m)
                    == _outcome(_whole_sum_pres_contains, t, m)), (
                wb.candidate_name(c), wb.names[j])


@pytest.mark.parametrize("fixture,names", [
    ("a3_wb", ("S3", "S2", "S1", "P3")),
    ("a4_wb", ("S2", "M[2,3]", "P2", "P4"))])
def test_pres_contains_fallback_route(request, fixture, names):
    """Over F2 the canonical cover of I2 (over A3, the interval module
    M[2,3]) by T has a kernel outside Gen T, but a cover by one copy of T
    does not; over A4 that cover maps more than one summand nonzero."""
    wb = request.getfixturevalue(fixture)
    c = tuple(sorted(wb.corpus.index_of(n) for n in names))
    m = wb.members[wb.corpus.index_of("I2")]
    expected = (True, {"route": "fallback", "copies": 1})
    assert _outcome(pres_contains, [wb.members[i] for i in c], m) == expected
    assert _outcome(_whole_sum_pres_contains, whole_sum(wb, c), m) == expected


def test_pres_contains_fallback_cap_raises(a3_f257_wb):
    wb = a3_f257_wb
    summands = [wb.members[wb.corpus.index_of(n)] for n in ("S2", "P3")]
    with pytest.raises(UndecidableError):
        pres_contains(summands, wb.members[wb.corpus.index_of("I2")])


# Over A3/F17 these (candidate, Gen member) pairs have d = dim Hom(T, M) = 2
# and no cover by one copy of T; the last round, r = d, would exceed the
# cap, but its one column space is the canonical map, already tested.
F17_PAIRS_DECIDED_AT_R_EQUALS_D = {
    ("S2+P3", "I2"), ("I2+P3", "S3"), ("P2+P3", "I2"),
    ("S3+S2+P3", "I2"), ("S3+P2+P3", "I2"), ("S1+I2+P3", "S3")}


def test_pres_fallback_skips_the_canonical_round():
    """pres_contains agrees with the whole-sum reference on every pair over
    A3/F17 except the six where the reference reaches r = d past the cap
    and raises; there it agrees with the reference with its cap lifted."""
    wb = load_workbench(zoo.linear_an(3, 17))
    undecided_by_reference = set()
    for c in wb.all_candidates():
        summands = [wb.members[i] for i in c]
        t = whole_sum(wb, c)
        for j in wb.gen_set(c):
            m = wb.members[j]
            got = _outcome(pres_contains, summands, m)
            reference = _outcome(_whole_sum_pres_contains, t, m)
            if got == reference:
                continue
            assert reference == "raises"
            assert got == _outcome(_whole_sum_pres_contains, t, m, math.inf)
            assert got == (False, {"reason": "no Add-T cover has Gen-T "
                                   "kernel", "copies_tried": 2})
            undecided_by_reference.add((wb.candidate_name(c), wb.names[j]))
    assert undecided_by_reference == F17_PAIRS_DECIDED_AT_R_EQUALS_D
