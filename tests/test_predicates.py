import gc
import sys
import weakref

import numpy as np
import pytest
from conftest import count_calls, decompose_or_none, whole_sum

from siltlab import (
    harness,
    homology,
    linalg,
    modclasses,
    predicates,
    reps,
)
from siltlab.algfile import load_algebra_file
from siltlab.homology import BoundExceededError
from siltlab.predicates import (
    Workbench,
    is_cosincere,
    is_presilting,
    is_pretilting,
    is_self_orthogonal,
    is_silting,
    is_sincere,
    is_tilting,
    satisfies_facsub,
    satisfies_subfac,
    vanishing_t3prime,
)


def cand(wb, *names):
    return tuple(sorted(wb.corpus.index_of(n) for n in names))


def test_workbench_builds_standard_modules_on_first_use(a3_parsed):
    """A cold Workbench holds no projective, injective or regular module
    until something reads it, and then keeps what it built."""
    wb = harness.load_workbench(a3_parsed)
    lazy = {"_projectives", "_injectives", "_regular"}
    assert not lazy & vars(wb).keys()
    regular = wb._regular
    assert regular is wb._regular and regular.dims == (3, 2, 1)
    assert [p.dims for p in wb._projectives] == [
        reps.projective_module(wb.algebra, v).dims
        for v in wb.algebra.vertices]
    assert lazy & vars(wb).keys() == {"_projectives", "_regular"}


def test_paper_example_verdicts(a2_wb):
    """T = P2 over the two-vertex quiver: sincere, pretilting, presilting,
    not silting, not tilting."""
    wb = a2_wb
    t = cand(wb, "P2")
    assert is_sincere(wb, t).verdict
    assert is_pretilting(wb, t).verdict
    assert is_presilting(wb, t).verdict
    assert not is_silting(wb, t).verdict
    assert not is_tilting(wb, t).verdict
    assert not vanishing_t3prime(wb, t).verdict
    # the vanishing witness is P1 = S1
    assert vanishing_t3prime(wb, t).witness == {
        "nonzero_member_in_perp01": "S1"}


def test_a2_tilting_modules(a2_wb):
    wb = a2_wb
    assert is_tilting(wb, cand(wb, "S1", "P2")).verdict  # P1 + P2 = R
    assert is_tilting(wb, cand(wb, "P2", "S2")).verdict
    assert not is_tilting(wb, cand(wb, "S1", "S2")).verdict
    assert not is_tilting(wb, cand(wb, "S1")).verdict


def test_regular_module_always_tilting(a2_wb, a3_wb, nak3_wb):
    for wb in (a2_wb, a3_wb, nak3_wb):
        # R = sum of all indecomposable projectives
        from siltlab.reps import is_isomorphic, projective_module

        idx = []
        for v in wb.algebra.vertices:
            pv = projective_module(wb.algebra, v)
            for i, m in enumerate(wb.members):
                if m.dims == pv.dims and is_isomorphic(m, pv):
                    idx.append(i)
                    break
        r = tuple(sorted(set(idx)))
        assert is_tilting(wb, r).verdict
        assert is_silting(wb, r).verdict
        assert is_sincere(wb, r).verdict
        assert is_self_orthogonal(wb, r).verdict


def test_s1_s2_not_presilting(a2_wb):
    """S1+S2 has a self-extension through Ext^1(S2, S1)."""
    wb = a2_wb
    t = cand(wb, "S1", "S2")
    assert not is_presilting(wb, t).verdict
    assert not is_pretilting(wb, t).verdict


def test_sincerity_square_names(a2_wb):
    wb = a2_wb
    for t in [cand(wb, "P2"), cand(wb, "S1"), cand(wb, "S1", "S2")]:
        s = is_sincere(wb, t).verdict
        assert satisfies_subfac(wb, t).verdict == s
        assert satisfies_facsub(wb, t).verdict == s


def test_zero_candidate(a2_wb):
    wb = a2_wb
    assert not is_sincere(wb, ()).verdict
    # the zero module is vacuously presilting
    assert is_presilting(wb, ()).verdict
    assert not vanishing_t3prime(wb, ()).verdict


def test_pretilting_undecided_on_cycle(cyc2_wb):
    wb = cyc2_wb
    s1 = cand(wb, "S1")
    with pytest.raises(BoundExceededError):
        is_pretilting(wb, s1)
    with pytest.raises(BoundExceededError):
        is_tilting(wb, s1)
    # the definition route stays available
    assert not is_tilting(wb, s1, routes=("definition",)).verdict


def test_silting_on_nakayama(nak3_wb):
    """Silting candidates over the bounded Nakayama algebra include the
    regular module and non-tilting silting modules exist too."""
    wb = nak3_wb
    silting = [c for c in wb.all_candidates()
               if is_silting(wb, c).verdict]
    tilting = [c for c in wb.all_candidates()
               if is_tilting(wb, c, routes=("definition",)).verdict]
    assert silting  # at least R
    for c in tilting:
        sincere = is_sincere(wb, c).verdict
        if sincere:
            assert c in silting  # tilting => sincere silting


def test_self_orthogonal_detects_ext2(nak3_wb):
    wb = nak3_wb
    s3 = cand(wb, "S3")
    rep = is_self_orthogonal(wb, s3)
    # pd S3 = 2 and Ext^i(S3, S3) = 0 for i = 1, 2
    assert rep.verdict
    mixed = cand(wb, "S3", "S1")
    rep2 = is_self_orthogonal(wb, mixed)
    assert not rep2.verdict
    assert rep2.witness["degree"] == 2
    assert rep2.witness["source"] == "S3"
    assert rep2.witness["target"] == "S1"


def test_report_rows_are_serializable(a2_wb):
    import json

    wb = a2_wb
    row = is_sincere(wb, cand(wb, "P2")).row()
    assert "cost" not in row
    json.dumps(row, sort_keys=True)


# ---------------------------------------------------------------------------
# whole-sum references for the summand-wise predicates

ORACLE_WORKBENCHES = [("a2_wb", None), ("a3_wb", None), ("nak3_wb", None),
                      ("cyc2_wb", None), ("a4_wb", 3)]


def _whole_sum_coevaluation(wb, candidate):
    """The canonical R -> T^d over a basis of Hom(R, T), T the whole sum."""
    t = whole_sum(wb, candidate)
    r = wb._regular
    basis = reps.hom_space(r, t)
    total = reps.direct_sum(wb.algebra, [t], [len(basis)])
    maps = [np.vstack([f.vertex_maps[vi] for f in basis]) if basis
            else linalg.zeros(0, r.dims[vi])
            for vi in range(wb.algebra.n_vertices)]
    return reps.Morphism(r, total, maps)


@pytest.mark.parametrize("fixture,max_summands", ORACLE_WORKBENCHES)
def test_sincerity_square_matches_whole_sum(request, fixture, max_summands):
    wb = request.getfixturevalue(fixture)
    alg = wb.algebra
    simples = [reps.simple_module(alg, v) for v in alg.vertices]
    for c in wb.all_candidates(max_summands):
        t = whole_sum(wb, c)
        subfac = facsub = sincere = cosincere = True
        for vi in range(alg.n_vertices):
            whole = modclasses.subfac_facsub(t, simples[vi])[:2]
            holder = next((i for i in c if wb.members[i].dims[vi]), None)
            summand = (wb.subfac_facsub(holder, vi) if holder is not None
                       else (False, False))
            assert whole == summand, (wb.candidate_name(c), vi)
            subfac = subfac and whole[0]
            facsub = facsub and whole[1]
            pv, iv = wb._projectives[vi], wb._injectives[vi]
            sincere = sincere and bool(reps.hom_space(pv, t))
            cosincere = cosincere and bool(reps.hom_space(t, iv))
        assert satisfies_subfac(wb, c).verdict == subfac
        assert satisfies_facsub(wb, c).verdict == facsub
        assert is_sincere(wb, c).verdict == sincere
        assert is_cosincere(wb, c).verdict == cosincere


@pytest.mark.parametrize("fixture,max_summands", ORACLE_WORKBENCHES)
def test_coevaluation_matches_whole_sum(request, fixture, max_summands):
    """cok(R -> T^d) = cok(R -> sum T_i^(d_i)) + (d - d_i) copies of T_i,
    and T3 holds iff the first is mono with a cokernel whose corpus
    decomposition lists summands of T only."""
    wb = request.getfixturevalue(fixture)
    for c in wb.all_candidates(max_summands):
        old = _whole_sum_coevaluation(wb, c)
        new = predicates._coevaluation(wb, c)
        assert old.is_mono() == new.is_mono()
        old_dec = decompose_or_none(
            reps.factorize(old)["cokernel"], wb.corpus)
        new_dec = decompose_or_none(
            reps.factorize(new)["cokernel"], wb.corpus)
        assert (old_dec is None) == (new_dec is None), wb.candidate_name(c)
        assert wb.t3(c) == (old.is_mono() and old_dec is not None
                            and set(old_dec) <= set(c)), wb.candidate_name(c)
        if old_dec is None:
            continue
        d_i = {i: len(reps.hom_space(wb._regular, wb.members[i]))
               for i in c}
        d = sum(d_i.values())
        assert d == len(reps.hom_space(wb._regular, whole_sum(wb, c)))
        expected = dict(new_dec)
        for i in c:
            expected[i] = expected.get(i, 0) + d - d_i[i]
        assert old_dec == {i: n for i, n in expected.items() if n}


# ---------------------------------------------------------------------------
# work counters


def test_subfac_facsub_computed_once_per_member_and_vertex(a3_wb,
                                                          monkeypatch):
    wb = Workbench(a3_wb.corpus)
    calls = count_calls(monkeypatch, modclasses, "subfac_facsub")
    first = harness.classify(wb)
    keys = [(next(i for i, m in enumerate(wb.members) if m is t),
             s.dims.index(1)) for t, s in calls]
    assert calls
    assert len(keys) == len(set(keys))
    del calls[:]
    assert harness.classify(wb) == first
    assert calls == []


def test_dsig_reads_each_presentation_once(nak3_wb, monkeypatch):
    wb = Workbench(nak3_wb.corpus)
    calls = count_calls(monkeypatch, homology, "minimal_presentation")
    n = len(wb.members)
    table = [[wb.dsig(i, j) for j in range(n)] for i in range(n)]
    assert [m for m, in calls] == wb.members
    assert any(map(all, table)) and not all(map(all, table))


def test_sincerity_square_builds_no_direct_sum(a3_wb, monkeypatch):
    wb = Workbench(a3_wb.corpus)
    calls = count_calls(monkeypatch, reps, "direct_sum")
    for c in wb.all_candidates():
        for predicate in (is_sincere, is_cosincere,
                          satisfies_subfac, satisfies_facsub):
            predicate(wb, c)
    assert calls == []


def test_gen_eq_pres_builds_no_direct_sum(a3_wb, monkeypatch):
    # a fresh Workbench first: its constructor builds R with direct_sum
    wb = Workbench(a3_wb.corpus)
    sums = count_calls(monkeypatch, reps, "direct_sum")
    factorizations = count_calls(monkeypatch, reps, "factorize")
    for c in wb.all_candidates():
        wb.gen_eq_pres(c)
    assert sums == []
    assert factorizations == []


def _record_hom_solves(monkeypatch):
    """Wrap hom_space in every siltlab module that binds it; return the
    list of (M, N) pairs, M nonzero, whose Hom system it solves anew."""
    original = reps.hom_space
    solved = []

    def recording(m, n):
        younger = max(m, n, key=lambda r: r._serial)
        if not m.is_zero() and ("hom", m, n) not in younger._cache:
            solved.append((m, n))
        return original(m, n)

    for mod_name, sub in list(sys.modules.items()):
        if (mod_name.startswith("siltlab.")
                and vars(sub).get("hom_space") is original):
            monkeypatch.setattr(sub, "hom_space", recording)
    return solved


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "nakayama_a3",
                                  "nakayama_cycle2"])
def test_dsigma_table_solves_no_hom_system_beyond_ext1(alg_dir, name,
                                                       monkeypatch):
    """D_sigma reads Hom(P1, X) and Hom(P0, X) for the P1 -> P0 of the
    minimal resolution, so once the Ext^1 table is full every Hom system
    with a nonzero source is already solved."""
    wb = harness.load_workbench(load_algebra_file(alg_dir / f"{name}.alg"))
    pairs = [(i, j) for i in range(len(wb.members))
             for j in range(len(wb.members))]
    for i, j in pairs:
        wb.ext(1, i, j)
    solved = _record_hom_solves(monkeypatch)
    for i, j in pairs:
        wb.dsig(i, j)
    assert len(wb._dsig) == len(pairs)
    assert solved == []


def test_second_classify_sweep_solves_no_hom_system(a3_parsed, monkeypatch):
    wb = harness.load_workbench(a3_parsed)
    first = harness.classify(wb)
    solved = _record_hom_solves(monkeypatch)
    assert harness.classify(wb) == first
    assert solved == []


def test_t3_cokernel_dies_with_the_call(a3_parsed, monkeypatch):
    """T3 decomposes its cokernel over T's summands, which solves Hom
    systems between the members and that transient module; their bases
    stay with the younger module, so no member keeps the cokernel alive."""
    wb = harness.load_workbench(a3_parsed)
    built = []

    def recording(f):
        out = reps.cokernel(f)
        built.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(predicates, "cokernel", recording)
    assert wb.t3(cand(wb, "S2", "P2", "P3"))
    (coker,) = built
    assert not coker().is_zero()
    gc.collect()
    assert coker() is None


def test_ext_resolves_only_the_terms_it_reads(alg_dir):
    """Ext^d reads terms 0..d+1 of the minimal resolution; pd still
    resolves to the bound, and the Ext values do not depend on the depth
    a resolution was first built to (nakayama_cycle2 has infinite global
    dimension, so no resolution of a non-projective member terminates)."""
    path = alg_dir / "nakayama_cycle2.alg"
    cold = harness.load_workbench(load_algebra_file(path))
    n = len(cold.members)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    values = {}
    for d in range(1, 4):
        for i, j in pairs:
            values[d, i, j] = cold.ext(d, i, j)
        for m in cold.members:
            assert len(m._cache["resolution"].terms) <= d + 2
    pds = [cold.pd(i) for i in range(n)]
    assert None in pds
    bounded = harness.load_workbench(load_algebra_file(path))
    assert [bounded.pd(i) for i in range(n)] == pds
    assert values == {(d, i, j): bounded.ext(d, i, j)
                      for d, i, j in values}
