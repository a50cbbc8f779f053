import functools
import gc
import itertools
import weakref

import numpy as np
import pytest
from conftest import count_calls
from hypothesis import given, settings
from hypothesis import strategies as st

from siltlab import linalg, reps, zoo
from siltlab.harness import load_workbench
from siltlab.homology import projective_dimension
from siltlab.reps import (
    Morphism,
    Representation,
    combination,
    composition_factors,
    direct_sum,
    factorize,
    hom_dim,
    hom_from_projective,
    hom_space,
    injective_module,
    is_isomorphic,
    morphism_into_sum,
    projective_module,
    projective_sum,
    quotient_representation,
    radical_of_spans,
    radical_spans,
    regular_module,
    simple_module,
    socle_spans,
    span_closure,
    sub_representation,
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
            summed = direct_sum(alg, [members[i], members[j]])
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
    rad = radical_spans(p3)
    assert [d - r.shape[1] for d, r in zip(p3.dims, rad)] == [0, 0, 1]
    assert [s.shape[1] for s in socle_spans(p3)] == [1, 0, 0]
    # submodule generated by the vector at vertex 2: radical of P3 shape
    x = np.zeros(p3.total_dim, dtype=np.int64)
    offset = sum(p3.dims[:1])
    x[offset] = 1
    spans = span_closure(p3, [x])
    sub, incl = sub_representation(p3, spans)
    assert sub.dims == (1, 1, 0)
    assert incl.is_mono()
    quot, proj = quotient_representation(p3, spans)
    assert quot.dims == (0, 0, 1)
    assert proj.is_epi()


def jordan_holder_factors(m):
    """Slow cross-check oracle: peel socles until nothing is left."""
    alg = m.algebra
    out = {}
    current = m
    while not current.is_zero():
        sp = socle_spans(current)
        for i, v in enumerate(alg.vertices):
            mult = linalg.rank(sp[i], alg.p)
            if mult:
                out[v] = out.get(v, 0) + mult
        current, _ = quotient_representation(current, sp)
    return out


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
    s1s2 = direct_sum(alg, [simple_module(alg, "1"),
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


# ---------------------------------------------------------------------------
# span primitive against path images


def _composable_paths(quiver, length):
    """Arrow-index sequences of the given length, in traversal order."""
    seqs = [()]
    for _ in range(length):
        seqs = [s + (b,) for s in seqs
                for b, arrow in enumerate(quiver.arrows)
                if not s or quiver.arrows[s[-1]].target == arrow.source]
    return seqs


def _path_images(m, spans, lengths):
    """Canonical per-vertex spans of every path of the given lengths
    applied to per-vertex spans."""
    q = m.algebra.quiver
    p = m.algebra.p
    out = [[linalg.zeros(d, 0)] for d in m.dims]
    for length in lengths:
        if length == 0:
            for cols, span in zip(out, spans):
                cols.append(span)
            continue
        for seq in _composable_paths(q, length):
            mat = spans[q.vertex_index(q.arrows[seq[0]].source)]
            for a in seq:
                mat = linalg.matmul(m.arrow_maps[a], mat, p)
            out[q.vertex_index(q.arrows[seq[-1]].target)].append(mat)
    return [linalg.column_space_basis(np.hstack(c), p) for c in out]


def _same_spans(a, b):
    return all(x.shape == y.shape and np.array_equal(x, y)
               for x, y in zip(a, b))


@pytest.mark.parametrize("fixture", ["a3_wb", "nak3_wb", "cyc2_wb", "a4_wb"])
def test_spans_match_path_images(request, fixture):
    """J^k.M is spanned by the paths of length k, and the submodule
    generated by vectors by all their path images; every span comes out
    canonical, so the bytes agree."""
    wb = request.getfixturevalue(fixture)
    p = wb.algebra.p
    rng = np.random.default_rng(1)
    for m in [*wb.members, regular_module(wb.algebra)]:
        full = [linalg.identity(d) for d in m.dims]
        assert _same_spans(radical_spans(m), _path_images(m, full, [1]))
        power = full
        for k in range(1, m.total_dim + 1):
            power = radical_of_spans(m, power)
            assert _same_spans(power, _path_images(m, full, [k]))
        for n_vectors in (1, 2):
            vectors = [rng.integers(0, p, size=m.total_dim)
                       for _ in range(n_vectors)]
            offsets = np.cumsum(m.dims)[:-1]
            gens = [np.stack(parts, axis=1) for parts in zip(
                *(np.split(v, offsets) for v in vectors))]
            lengths = range(m.total_dim + 1)
            closed = span_closure(m, vectors)
            assert _same_spans(closed, _path_images(m, gens, lengths))
            assert _same_spans(radical_of_spans(m, closed),
                               _path_images(m, gens, lengths[1:]))


def test_span_closure_rejects_wrong_length(a2_algebra):
    p2 = projective_module(a2_algebra, "2")
    with pytest.raises(linalg.MalformedInputError):
        span_closure(p2, [np.zeros(p2.total_dim + 1, dtype=np.int64)])


# ---------------------------------------------------------------------------
# linear combinations and the isomorphism test


def test_combination_is_reduced_linear_combination(a3_wb):
    p = a3_wb.algebra.p
    rng = np.random.default_rng(2)
    for m in a3_wb.members:
        for n in a3_wb.members:
            basis = hom_space(m, n)
            if not basis:
                continue
            coeffs = rng.integers(0, p, size=len(basis))
            f = combination(basis, coeffs)
            assert f.source is m and f.target is n and f.is_natural()
            for vi, mat in enumerate(f.vertex_maps):
                expected = sum(int(c) * g.vertex_maps[vi]
                               for c, g in zip(coeffs, basis)) % p
                assert np.array_equal(mat, expected)


def _first_iso_in_product_order(basis, p):
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        if not any(coeffs):
            continue
        maps = [sum(c * f.vertex_maps[vi] for c, f in zip(coeffs, basis))
                % p for vi in range(len(basis[0].vertex_maps))]
        if Morphism(basis[0].source, basis[0].target, maps).is_iso():
            return maps
    return None


def test_iso_witness_is_first_in_product_order():
    """Sums with their summands in another order are isomorphic, as an
    exhaustive search of every nonzero combination of the Hom basis
    confirms."""
    alg = zoo.a2(3).build()
    s1 = simple_module(alg, "1")
    p2 = projective_module(alg, "2")
    x = direct_sum(alg, [s1, s1, p2])
    y = direct_sum(alg, [p2, s1, s1])
    for m, n in [(x, x), (x, y), (y, x), (s1, s1), (p2, p2)]:
        assert is_isomorphic(m, n) is True
        assert _first_iso_in_product_order(hom_space(m, n), 3) is not None


def test_iso_decided_over_f257_with_large_hom():
    """Over F_257, Hom spaces of dimension 4 decide as small ones do: S1^2
    is isomorphic to itself, and S1^2 + S2 is not isomorphic to S1 + P2
    (dim End is 5 against 3)."""
    alg = zoo.a2(257).build()
    s1 = simple_module(alg, "1")
    s2 = simple_module(alg, "2")
    p2 = projective_module(alg, "2")
    twice = direct_sum(alg, [s1, s1])
    assert hom_dim(twice, twice) == 4
    assert is_isomorphic(twice, twice) is True
    m = direct_sum(alg, [s1, s1, s2])
    n = direct_sum(alg, [s1, p2])
    assert m.dims == n.dims and hom_dim(m, n) == 4
    assert (hom_dim(m, m), hom_dim(n, n)) == (5, 3)
    assert is_isomorphic(m, n) is False


def test_iso_decided_when_all_hom_dimensions_agree():
    """P1 + P1 against P1 + P2 of the 2-cycle Nakayama algebra over F257:
    all four Hom spaces between them have dimension 4, and dim End/rad,
    4 against 2, tells the pair apart."""
    alg = zoo.cyclic_nakayama_2(257).build()
    p1 = projective_module(alg, "1")
    p2 = projective_module(alg, "2")
    m = direct_sum(alg, [p1, p1])
    n = direct_sum(alg, [p1, p2])
    assert {hom_dim(a, b) for a in (m, n) for b in (m, n)} == {4}
    assert is_isomorphic(m, n) is False
    assert is_isomorphic(n, m) is False


def _conjugate(n, rng):
    """N with its basis changed by random invertible vertex matrices."""
    alg = n.algebra
    p = alg.p
    changes = []
    for d in n.dims:
        change = rng.integers(0, p, size=(d, d))
        while linalg.rank(change, p) < d:
            change = rng.integers(0, p, size=(d, d))
        changes.append(change)
    maps = []
    for ai, arrow in enumerate(alg.quiver.arrows):
        u = alg.quiver.vertex_index(arrow.source)
        w = alg.quiver.vertex_index(arrow.target)
        maps.append(linalg.matmul(
            linalg.matmul(changes[w], n.arrow_maps[ai], p),
            linalg.invert(changes[u], p), p))
    return Representation(alg, n.dims, maps)


KRULL_SCHMIDT_CASES = [
    (zoo.a2, 3), (lambda p: zoo.linear_an(3, p), 2),
    (lambda p: zoo.linear_an(3, p), 3), (zoo.nakayama_a3, 2),
    (zoo.cyclic_nakayama_2, 2), (zoo.cyclic_nakayama_2, 5), (zoo.a2, 257),
]


def test_is_isomorphic_matches_krull_schmidt():
    """M = sum X_i^(a_i) and N = sum X_i^(b_i) over the corpus members X_i,
    multiplicities 0..2, with the same dimension vector, N conjugated by
    random invertible vertex matrices: by Krull-Schmidt they are
    isomorphic iff a = b.  Seeded, 20 pairs per algebra (140 in all);
    every fifth pair has a = b."""
    rng = np.random.default_rng(13)
    for factory, p in KRULL_SCHMIDT_CASES:
        wb = load_workbench(factory(p))
        members = wb.members
        by_dims: dict = {}
        for mults in itertools.product(range(3), repeat=len(members)):
            dims = tuple(sum(a * x.dims[vi] for a, x in zip(mults, members))
                         for vi in range(len(wb.algebra.vertices)))
            by_dims.setdefault(dims, []).append(mults)
        groups = [g for dims, g in sorted(by_dims.items())
                  if any(dims) and len(g) > 1]
        for k in range(20):
            group = groups[rng.integers(len(groups))]
            i, j = rng.choice(len(group), size=2, replace=False)
            a, b = group[i], group[i if k % 5 == 0 else j]
            m = direct_sum(wb.algebra, members, list(a))
            n = _conjugate(direct_sum(wb.algebra, members, list(b)), rng)
            assert is_isomorphic(m, n) is (a == b), (p, a, b)


def _assert_blocks(f, parts):
    """Part k of a map into a sum is its k-th block of rows at every
    vertex."""
    offsets = [0] * len(f.vertex_maps)
    for part in parts:
        for vi, mat in enumerate(part.vertex_maps):
            d = mat.shape[0]
            block = f.vertex_maps[vi][offsets[vi]:offsets[vi] + d]
            assert np.array_equal(block, mat)
            offsets[vi] += d


def test_sum_maps_have_the_parts_as_blocks(a3_wb):
    alg = a3_wb.algebra
    members = a3_wb.members
    for m in members:
        into_parts = [f for n in members for f in hom_space(m, n)]
        assert into_parts
        for parts in (into_parts, []):
            total = direct_sum(alg, [f.target for f in parts])
            into = morphism_into_sum(m, total, parts)
            assert (into.source, into.target) == (m, total)
            assert into.is_natural()
            _assert_blocks(into, parts)
        # with no parts the sum is zero and so is every vertex map
        assert morphism_into_sum(m, direct_sum(alg, []), []).is_zero()


@functools.cache
def _shipped_workbench(name, p):
    return load_workbench(zoo.STANDARD_FILES[name](p))


@st.composite
def _summands_and_multiplicities(draw):
    """Up to four random valid representations of one shipped algebra over
    F2, F3 or F5, each with a multiplicity 0..2.  A summand is a sum of one
    to three corpus members, built by the reference below, with its basis
    changed at random, so its matrices are dense and up to 3 x 3."""
    wb = _shipped_workbench(draw(st.sampled_from(sorted(zoo.STANDARD_FILES))),
                            draw(st.sampled_from([2, 3, 5])))
    alg = wb.algebra
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picks = draw(st.lists(
        st.lists(st.sampled_from(wb.members), min_size=1, max_size=3),
        max_size=4))
    summands = []
    for members in picks:
        dims = [sum(x.dims[v] for x in members)
                for v in range(alg.n_vertices)]
        maps = [np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
                for rows, ncols in _block_diagonal_reference(alg, members)]
        summands.append(_conjugate(Representation(alg, dims, maps), rng))
    mults = draw(st.lists(st.integers(0, 2), min_size=len(picks),
                          max_size=len(picks)))
    return alg, summands, mults


def _block_diagonal_reference(alg, summands):
    """Per arrow u -> w, the sum's matrix as Python int rows and its column
    count: the summands' matrices down the diagonal, zeros elsewhere."""
    q = alg.quiver
    out = []
    for ai, arrow in enumerate(q.arrows):
        u = q.vertex_index(arrow.source)
        w = q.vertex_index(arrow.target)
        ncols = sum(r.dims[u] for r in summands)
        rows = []
        col = 0
        for r in summands:
            for row in r.arrow_maps[ai].tolist():
                rows.append([0] * col + row + [0] * (ncols - col - len(row)))
            col += r.dims[u]
        out.append((rows, ncols))
    return out


@settings(max_examples=80)
@given(_summands_and_multiplicities())
def test_direct_sum_is_block_diagonal(drawn):
    alg, summands, mults = drawn
    saved = [[mat.copy() for mat in r.arrow_maps] for r in summands]
    expanded = [r for r, k in zip(summands, mults) for _ in range(k)]
    total = direct_sum(alg, summands, mults)
    assert validate(total) == []
    assert total.dims == tuple(sum(r.dims[v] for r in expanded)
                               for v in range(alg.n_vertices))
    for mat, (rows, ncols) in zip(
            total.arrow_maps, _block_diagonal_reference(alg, expanded),
            strict=True):
        assert mat.dtype == np.int64
        assert mat.shape == (len(rows), ncols)
        assert mat.tolist() == rows
    # the sum owns its arrays: writing into them leaves every summand as is
    for mat in total.arrow_maps:
        mat += 1
    for r, mats in zip(summands, saved):
        for mat, before in zip(r.arrow_maps, mats, strict=True):
            assert np.array_equal(mat, before)


@pytest.mark.parametrize("mults", [[1], [1, 1, 1, 1], [1, -2, 1],
                                   [1, 1.0, 1], [1, "1", 1], [1, None, 1]],
                         ids=["short", "long", "negative", "float", "str",
                              "none"])
def test_direct_sum_rejects_bad_multiplicities(a3_algebra, mults):
    projs = [projective_module(a3_algebra, v) for v in a3_algebra.vertices]
    with pytest.raises(linalg.MalformedInputError):
        direct_sum(a3_algebra, projs, mults)


def test_direct_sum_takes_numpy_multiplicities(a3_algebra):
    projs = [projective_module(a3_algebra, v) for v in a3_algebra.vertices]
    summed = direct_sum(a3_algebra, projs, list(np.array([2, 0, 1])))
    assert summed.dims == (3, 1, 1)


def test_representation_rejects_an_arrow_matrix_of_the_wrong_shape(
        a2_algebra):
    # alpha: 2 -> 1 must be a dims[0] x dims[1] matrix
    for dims, shape in [((1, 1), (2, 3)), ((2, 2), (1, 1))]:
        with pytest.raises(linalg.MalformedInputError,
                           match=rf"arrow alpha: matrix shape \({shape[0]}"):
            Representation(a2_algebra, dims, [linalg.zeros(*shape)])


# ---------------------------------------------------------------------------
# subrepresentations, stored projectives and the kernels of a resolution


@pytest.mark.parametrize("fixture", ["a2_wb", "a3_wb", "nak3_wb", "cyc2_wb",
                                     "a4_wb"])
def test_sub_representation_rejects_spans_that_are_not_closed(request,
                                                              fixture):
    """The standard vectors completing rad M span no submodule of a module
    with nonzero radical: an arrow sends some of them into rad M."""
    wb = request.getfixturevalue(fixture)
    rejected = 0
    for m in [*wb.members, regular_module(wb.algebra)]:
        rad = radical_spans(m)
        if not any(r.shape[1] for r in rad):
            continue
        top = [linalg.basis_complement(r)[0] for r in rad]
        with pytest.raises(linalg.MalformedInputError, match="not closed"):
            sub_representation(m, top)
        rejected += 1
    assert rejected


@settings(max_examples=60)
@given(_summands_and_multiplicities(), st.integers(0, 2**32 - 1),
       st.integers(1, 3))
def test_sub_representation_matches_solved_coordinates(drawn, seed,
                                                       n_vectors):
    """On the submodule generated by random vectors, given by redundant
    spanning sets, each arrow's matrix reads what solving for
    the coordinates of its image in the canonical spans gives."""
    alg, summands, mults = drawn
    m = direct_sum(alg, summands, mults)
    p = alg.p
    rng = np.random.default_rng(seed)
    vectors = [rng.integers(0, p, size=m.total_dim) for _ in range(n_vectors)]
    # the closed spans, after random combinations of their columns
    spans = [np.hstack([linalg.matmul(s, rng.integers(0, p, size=(
        s.shape[1], 2)), p), s]) for s in span_closure(m, vectors)]
    sub, incl = sub_representation(m, spans)
    basis = incl.vertex_maps
    for ai, (u, w) in enumerate(alg.arrow_ends):
        image = linalg.matmul(m.arrow_maps[ai], basis[u], p)
        assert np.array_equal(sub.arrow_maps[ai],
                              linalg.solve(basis[w], image, p))
    assert incl.is_natural() and incl.is_mono()


def test_projectives_are_stored_on_their_algebra():
    """P(v) and the sums of P(v) that covers use are built once per
    algebra and go with it."""
    algebra = zoo.linear_an(3).build()
    pv = projective_module(algebra, "2")
    total = projective_sum(algebra, (2, 1, 1))
    assert projective_module(algebra, "2") is pv
    assert projective_sum(algebra, (2, 1, 1)) is total
    assert total.dims == (3, 3, 1) and total.name == ""
    refs = [weakref.ref(pv), weakref.ref(total)]
    del algebra, pv, total
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_resolution_takes_one_kernel_per_syzygy(monkeypatch):
    """A resolution that ends at length n computes n kernels: the kernel
    of its last cover is zero by a dimension count."""
    wb = load_workbench(zoo.nakayama_a3())
    calls = count_calls(monkeypatch, reps, "kernel")
    lengths = set()
    for member in wb.members:
        m = Representation(wb.algebra, member.dims, member.arrow_maps)
        del calls[:]
        n = projective_dimension(m)
        assert len(calls) == n
        lengths.add(n)
    assert lengths == {0, 1, 2}
