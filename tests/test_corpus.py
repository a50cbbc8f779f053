import pytest

from siltlab import zoo
from siltlab.algfile import parse_algebra_file
from siltlab.corpus import (
    _assign_names,
    _nakayama_members,
    _sorted_members,
    decompose,
    enumerate_indecomposables,
    is_indecomposable,
)
from siltlab.harness import load_workbench
from siltlab.reps import (
    SEARCH_CAP,
    Morphism,
    UndecidableError,
    direct_sum,
    hom_dim,
    injective_module,
    is_isomorphic,
    projective_module,
    simple_module,
)


def test_a2_corpus(a2_wb):
    assert len(a2_wb.members) == 3
    assert set(a2_wb.names) == {"S1", "S2", "P2"}
    assert a2_wb.corpus.completeness == "certified-by-classification"


def test_an_counts(a2_wb, a3_wb):
    # interval modules: n(n+1)/2
    assert len(a2_wb.members) == 3
    assert len(a3_wb.members) == 6


def test_nak3_corpus(nak3_wb):
    assert len(nak3_wb.members) == 5
    assert set(nak3_wb.names) == {"S1", "S2", "S3", "P2", "P3"}


def test_cyc2_corpus(cyc2_wb):
    # S1, S2 and the two 2-dimensional uniserials
    assert len(cyc2_wb.members) == 4
    dims = sorted(m.total_dim for m in cyc2_wb.members)
    assert dims == [1, 1, 2, 2]


def test_classified_vs_brute_agree(a2_parsed, nak3_parsed):
    for parsed in (a2_parsed, nak3_parsed):
        alg = parsed.build()
        classified = enumerate_indecomposables(alg, "classified")
        brute = enumerate_indecomposables(alg, "brute", dim_bound=4)
        assert len(classified) == len(brute)
        for m in classified.members:
            assert any(is_isomorphic(m, b) for b in brute.members)


def test_indecomposability(a2_algebra):
    alg = a2_algebra
    p2 = projective_module(alg, "2")
    assert is_indecomposable(p2)
    s1 = simple_module(alg, "1")
    assert is_indecomposable(s1)
    summed, _, _ = direct_sum(alg, [p2, s1])
    assert not is_indecomposable(summed)


def test_fitting_fallback_finds_split(a2_algebra):
    """End(S1^5) has dimension 25, past the exhaustive cap over F2; the
    Fitting fallback splits it along a basis endomorphism."""
    s1 = simple_module(a2_algebra, "1")
    m, _, _ = direct_sum(a2_algebra, [s1], [5])
    assert 2 ** hom_dim(m, m) > SEARCH_CAP
    assert not is_indecomposable(m)


LOCAL_LOOP_F257 = """field 257
family generic
vertices 1
arrow x: 1 -> 1
relation x*x*x
nilpotency 3
"""


def test_fitting_fallback_raises_without_split():
    """P1 = k[x]/(x^3) over F257 is local with a 3-dimensional End: past
    the cap, and no Fitting decomposition splits it, so the search
    refuses."""
    alg = parse_algebra_file(LOCAL_LOOP_F257).build()
    p1 = projective_module(alg, "1")
    assert 257 ** hom_dim(p1, p1) > SEARCH_CAP
    with pytest.raises(UndecidableError):
        is_indecomposable(p1)


CYCLE2_LENGTH4_F257 = """field 257
family nakayama
vertices 1 2
arrow a: 1 -> 2
arrow b: 2 -> 1
relation a*b*a*b
relation b*a*b*a
nilpotency 4
"""


def test_iso_search_exhausts_leading_one_vectors_under_cap():
    """P1 and P2 of the length-4 2-cycle Nakayama algebra over F257 have
    the same dimension vector and dim Hom(P2, P1) = 2: 257^2 vectors are
    past the cap, but the 258 with leading coefficient 1 are not, so the
    search is exhaustive and answers False.  The classified members and
    their names are those of the full product-order search."""
    alg = parse_algebra_file(CYCLE2_LENGTH4_F257).build()
    p1 = projective_module(alg, "1")
    p2 = projective_module(alg, "2")
    assert p1.dims == p2.dims and hom_dim(p2, p1) == 2
    assert 257 ** 2 > SEARCH_CAP >= 258
    assert not is_isomorphic(p2, p1)
    members = _sorted_members(_nakayama_members(alg))
    assert [m.dims for m in members] == [
        (0, 1), (1, 0), (1, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 2)]
    assert _assign_names(alg, members) == [
        "S2", "S1", "2|2", "1|2", "2|3", "1|3", "P2", "P1"]


def test_large_prime_load_makes_few_iso_tests(monkeypatch):
    """Each isomorphism test over F_65521 tries a few leading-1 or sampled
    combinations, not every nonzero scalar of a 1-dimensional Hom."""
    calls = []
    is_iso = Morphism.is_iso

    def counted(f):
        calls.append(f)
        return is_iso(f)

    monkeypatch.setattr(Morphism, "is_iso", counted)
    wb = load_workbench(zoo.cyclic_nakayama_2(65521))
    assert wb.names == ["S2", "S1", "P2", "P1"]
    assert len(calls) <= 10


def test_decompose_identifies_summands(a3_wb):
    wb = a3_wb
    alg = wb.algebra
    mults = {0: 2, 3: 1}
    reps = [wb.members[i] for i in sorted(mults)]
    counts = [mults[i] for i in sorted(mults)]
    summed, _, _ = direct_sum(alg, reps, counts)
    assert decompose(summed, wb.corpus) == mults


def test_decompose_regular(nak3_wb):
    wb = nak3_wb
    from siltlab.reps import regular_module

    r = regular_module(wb.algebra)
    dec = decompose(r, wb.corpus)
    # R = P1 + P2 + P3; P1 = S1 here
    total = sum(dec.values())
    assert total == 3
    names = sorted(wb.names[i] for i in dec)
    assert names == ["P2", "P3", "S1"]


def test_decompose_incomplete_corpus_raises(a3_wb):
    import numpy as np

    from siltlab.corpus import Corpus

    wb = a3_wb
    truncated = Corpus(wb.algebra, wb.members[:2], wb.names[:2],
                       "truncated-for-test")
    big = wb.members[-1]
    if big.dims != wb.members[0].dims:
        with pytest.raises(RuntimeError):
            decompose(big, truncated)


def test_standard_names_preferred(nak3_wb):
    wb = nak3_wb
    for name in ("S1", "S2", "S3", "P2", "P3"):
        idx = wb.corpus.index_of(name)
        member = wb.members[idx]
        if name.startswith("S"):
            std = simple_module(wb.algebra, name[1:])
        else:
            std = projective_module(wb.algebra, name[1:])
        assert is_isomorphic(member, std)


def test_unknown_strategy_rejected(a2_algebra):
    with pytest.raises(ValueError):
        enumerate_indecomposables(a2_algebra, "magic")
