import itertools

import numpy as np
import pytest
from test_corpus import parsed_algebra

from siltlab import linalg, zoo
from siltlab.corpus import enumerate_indecomposables
from siltlab.harness import load_workbench
from siltlab.homology import (
    BoundExceededError,
    default_resolution_bound,
    ext_dim,
    injective_envelope,
    minimal_presentation,
    minimal_resolution,
    projective_cover,
    projective_dimension,
    respects_presentation,
)
from siltlab.reps import (
    Morphism,
    Representation,
    direct_sum,
    dual,
    factorize,
    hom_dim,
    hom_space,
    injective_module,
    projective_module,
    radical_spans,
    simple_module,
    socle_spans,
)


def test_projective_cover_of_simple(a2_algebra):
    s2 = simple_module(a2_algebra, "2")
    cover = projective_cover(s2)
    assert cover.source.dims == (1, 1)  # P2
    assert cover.is_epi()


def test_cover_minimality_kernel_in_radical(a3_wb, nak3_wb, cyc2_wb):
    for wb in (a3_wb, nak3_wb, cyc2_wb):
        for m in wb.members:
            cover = projective_cover(m)
            parts = factorize(cover)
            incl = parts["kernel_inclusion"]
            rad = radical_spans(cover.source)
            for i in range(wb.algebra.n_vertices):
                assert linalg.solve(
                    rad[i], incl.vertex_maps[i], wb.algebra.p) is not None


def test_pd_examples(a2_algebra, a3_algebra, nak3_algebra):
    assert projective_dimension(projective_module(a2_algebra, "2")) == 0
    assert projective_dimension(simple_module(a2_algebra, "2")) == 1
    assert projective_dimension(simple_module(a2_algebra, "1")) == 0
    assert projective_dimension(simple_module(a3_algebra, "3")) == 1
    # over A3 with alpha*beta = 0 the resolution of S3 has length 2
    assert projective_dimension(simple_module(nak3_algebra, "3")) == 2


def test_pd_undecided_on_cycle(cyc2_algebra):
    # Ext^1 builds terms 0..2 only: the resolution is truncated, not past
    # a bound
    cold = simple_module(zoo.cyclic_nakayama_2().build(), "1")
    ext_dim(1, cold, cold)
    res = minimal_resolution(cold, 0)  # the cached one, not extended
    assert len(res.terms) == 3 and res.status == "truncated"
    s1 = simple_module(cyc2_algebra, "1")
    assert projective_dimension(s1) is None
    res = minimal_resolution(s1, default_resolution_bound(cyc2_algebra))
    assert res.status == "bound-exceeded"
    with pytest.raises(BoundExceededError):
        res.term(len(res.terms))


def test_ext_examples(a2_algebra, nak3_algebra):
    s1 = simple_module(a2_algebra, "1")
    s2 = simple_module(a2_algebra, "2")
    assert ext_dim(1, s2, s1) == 1
    assert ext_dim(1, s1, s2) == 0
    assert ext_dim(2, s2, s1) == 0
    # resolution 0 -> P1 -> P2 -> P3 -> S3 -> 0 gives a nonzero Ext^2
    t3 = simple_module(nak3_algebra, "3")
    t1 = simple_module(nak3_algebra, "1")
    assert ext_dim(2, t3, t1) == 1
    assert ext_dim(1, t3, t1) == 0


def test_ext_zero_is_hom(a3_wb):
    wb = a3_wb
    for i, m in enumerate(wb.members):
        for j, n in enumerate(wb.members):
            assert ext_dim(0, m, n) == hom_dim(m, n)


def test_ext_vanishes_on_projectives(a3_wb, nak3_wb):
    for wb in (a3_wb, nak3_wb):
        for v in wb.algebra.vertices:
            pv = projective_module(wb.algebra, v)
            for m in wb.members:
                assert ext_dim(1, pv, m) == 0
                assert ext_dim(2, pv, m) == 0


def test_ext_additive_over_sums(nak3_wb):
    wb = nak3_wb
    alg = wb.algebra
    import itertools

    for js in itertools.combinations(range(len(wb.members)), 2):
        summed = direct_sum(alg, [wb.members[j] for j in js])
        for k, n in enumerate(wb.members):
            for d in (1, 2):
                assert ext_dim(d, summed, n) == sum(
                    ext_dim(d, wb.members[j], n) for j in js)


def test_euler_characteristic(a3_wb):
    """For hereditary algebras: dim Hom - dim Ext^1 = <dim M, dim N>."""
    wb = a3_wb
    alg = wb.algebra
    q = alg.quiver
    for m in wb.members:
        for n in wb.members:
            bilinear = sum(m.dims[i] * n.dims[i]
                           for i in range(alg.n_vertices))
            bilinear -= sum(
                m.dims[q.vertex_index(a.source)]
                * n.dims[q.vertex_index(a.target)]
                for a in q.arrows
            )
            assert hom_dim(m, n) - ext_dim(1, m, n) == bilinear


def test_minimal_presentation_shape(a2_algebra):
    s2 = simple_module(a2_algebra, "2")
    pres = minimal_presentation(s2)
    assert pres.p0.dims == (1, 1)  # P2
    assert pres.p1.dims == (1, 0)  # P1
    comp = pres.cok_projection.compose(pres.sigma)
    assert comp.is_zero()


@pytest.mark.parametrize("fixture", ["a2_wb", "a3_wb", "a4_wb", "nak3_wb",
                                     "cyc2_wb"])
def test_presentation_is_a_view_of_the_resolution(request, fixture):
    wb = request.getfixturevalue(fixture)
    nonprojective = 0
    for m in wb.members:
        pres = minimal_presentation(m)
        res = minimal_resolution(m, 1)
        assert pres.p0 is res.terms[0]
        assert pres.cok_projection is res.augmentation is projective_cover(m)
        if len(res.terms) > 1:
            nonprojective += 1
            assert pres.p1 is res.terms[1]
            assert pres.sigma is res.differentials[0]
        else:
            assert pres.p1.is_zero() and pres.sigma.is_zero()
    assert nonprojective


def test_d_sigma_inside_perp1(a3_wb, nak3_wb, cyc2_wb):
    """D_sigma membership implies Ext^1(T, X) = 0 for minimal sigma."""
    for wb in (a3_wb, nak3_wb, cyc2_wb):
        for i, t in enumerate(wb.members):
            pres = minimal_presentation(t)
            for j, x in enumerate(wb.members):
                if respects_presentation(pres, x):
                    assert ext_dim(1, t, x) == 0


def test_d_sigma_projective_case(a2_algebra):
    """For projective T the presentation is 0 -> P, so D_sigma holds for
    everything with Hom onto covered tops; pd 0 means sigma = 0."""
    p2 = projective_module(a2_algebra, "2")
    pres = minimal_presentation(p2)
    assert pres.p1.is_zero()
    for v in a2_algebra.vertices:
        assert respects_presentation(pres, simple_module(a2_algebra, v))


# Beyond the shipped algebras: a non-monomial relation, under which the
# path basis of A^op need not be that of A read backwards, a double arrow,
# a loop and an oriented cycle.
GENERIC = ["signed_square_f5", "kronecker_f3", "local_loop_f3",
           "cycle2_length3_f2"]


def test_injective_envelope_essential(alg_dir, a3_wb, nak3_wb):
    members = [m for wb in (a3_wb, nak3_wb) for m in wb.members]
    for name in GENERIC:
        algebra = parsed_algebra(alg_dir, name).build()
        members += enumerate_indecomposables(algebra, "brute", 3).members
    for m in members:
        env = injective_envelope(m)
        assert env.source is m and env.is_natural() and env.is_mono()
        # the socle multiplicities of M and its envelope agree
        assert ([s.shape[1] for s in socle_spans(m)]
                == [s.shape[1] for s in socle_spans(env.target)])


@pytest.mark.parametrize("name", GENERIC)
def test_injective_modules_of_generic_algebras(alg_dir, name):
    """I(v) = D P(v) over A^op has socle S(v), one basis vector at u per
    basis path u -> v of A, and Ext^1(S(u), I(v)) = 0 for every u, which
    makes it injective (every finite-dimensional module is filtered by
    simples)."""
    algebra = parsed_algebra(alg_dir, name).build()
    simples = [simple_module(algebra, u) for u in algebra.vertices]
    for v, s in zip(algebra.vertices, simples):
        iv = injective_module(algebra, v)
        assert [b.shape[1] for b in socle_spans(iv)] == list(s.dims)
        into_v = [path.start for _, path in algebra.paths_into(v)]
        assert iv.dims == tuple(into_v.count(u) for u in algebra.vertices)
        assert [ext_dim(1, su, iv) for su in simples] == [0] * len(simples)


FAMILIES = {"a3": lambda p: zoo.linear_an(3, p),
            "a4": lambda p: zoo.linear_an(4, p),
            "a5": lambda p: zoo.linear_an(5, p),
            "nakayama_a3": zoo.nakayama_a3,
            "nakayama_cycle2": zoo.cyclic_nakayama_2}


@pytest.mark.parametrize("name, p", [
    *itertools.product(["a3", "a4", "nakayama_a3", "nakayama_cycle2"],
                       [2, 3]),
    ("a5", 2),
])
def test_ext_duality_on_the_pair_table(name, p):
    """Ext^i_A(M, N) = Ext^i_A^op(D N, D M) for i = 1, 2 on every ordered
    pair of corpus members: the Workbench's Ext table against minimal
    resolutions of other modules over the opposite algebra.  D D M is M,
    entry by entry, over the same algebra object."""
    wb = load_workbench(FAMILIES[name](p))
    duals = [dual(m) for m in wb.members]
    for m, dm in zip(wb.members, duals):
        ddm = dual(dm)
        assert dm.algebra is wb.algebra.opposite
        assert ddm.algebra is m.algebra and ddm.dims == m.dims
        assert all(np.array_equal(a, b)
                   for a, b in zip(ddm.arrow_maps, m.arrow_maps))
    seen = []
    for degree, (i, j) in itertools.product(
            (1, 2), itertools.product(range(len(duals)), repeat=2)):
        seen.append(wb.ext(degree, i, j))
        assert seen[-1] == ext_dim(degree, duals[j], duals[i]), (degree, i, j)
    assert any(seen)


def _rank_after(maps, d, p):
    """rank of f -> f.d over a Hom basis, the maps flattened."""
    cols = [f.compose(d).flatten() for f in maps]
    return linalg.rank(np.stack(cols, axis=1), p) if cols else 0


def _ext_reference(i, m, n):
    """dim Ext^i(M, N), i >= 1, by Hom systems on the same resolution:
    dim Hom(P_i, N) - rank Hom(d_(i+1), N) - rank Hom(d_i, N)."""
    res = minimal_resolution(m, i + 1)
    h_i = hom_space(res.term(i), n)
    if not h_i:
        return 0
    p = m.algebra.p
    return (len(h_i) - _rank_after(h_i, res.differential(i + 1), p)
            - _rank_after(hom_space(res.term(i - 1), n),
                          res.differential(i), p))


def _d_sigma_reference(pres, x):
    """Hom(sigma, X) onto, by Hom systems: rank of the composites."""
    h1 = hom_space(pres.p1, x)
    return _rank_after(hom_space(pres.p0, x), pres.sigma,
                       x.algebra.p) == len(h1)


_YONEDA_INPUTS = [
    *[(name, "workbench") for name in
      ["a2", "a3", "a4", "nakayama_a3", "nakayama_cycle2"]],
    ("a3_f3", "workbench"), ("a4_f3", "workbench"),
    *[(name, "brute") for name in [*GENERIC, "cyclic_nakayama_2_f3"]],
]


def _corpus(alg_dir, name, source):
    """The Workbench corpus of a shipped algebra (or of a3, a4 over F3),
    or the brute corpus up to dimension 3 of a generic one."""
    if source == "workbench":
        parsed = (zoo.linear_an(int(name[1]), 3) if name.endswith("_f3")
                  else parsed_algebra(alg_dir, name))
        return load_workbench(parsed).members
    algebra = parsed_algebra(alg_dir, name).build()
    return enumerate_indecomposables(algebra, "brute", 3).members


@pytest.mark.parametrize("name, source", _YONEDA_INPUTS,
                         ids=[name for name, _ in _YONEDA_INPUTS])
def test_yoneda_ext_and_d_sigma_match_hom_systems(alg_dir, name, source):
    """Ext^i (i = 1, 2, 3) and D_sigma read Hom(P(v), N) as N_v, and
    must agree with solving a Hom system per term, on every ordered pair
    of the shipped corpora (F2, and a3, a4 over F3) and of the brute
    corpora up to dimension 3 of the generic algebras, where a cover
    term has several summands at one vertex."""
    members = _corpus(alg_dir, name, source)
    for m, n in itertools.product(members, repeat=2):
        for i in (1, 2, 3):
            assert ext_dim(i, m, n) == _ext_reference(i, m, n), (i, m, n)
        pres = minimal_presentation(m)
        assert (respects_presentation(pres, n)
                is _d_sigma_reference(pres, n)), (m, n)


def test_resolution_exactness(nak3_wb):
    wb = nak3_wb
    p = wb.algebra.p
    for m in wb.members:
        res = minimal_resolution(m, default_resolution_bound(wb.algebra))
        assert res.status == "terminated"
        assert res.augmentation.is_epi()
        for i in range(1, res.length + 1):
            d_i = res.differential(i)
            prev = (res.augmentation if i == 1 else res.differential(i - 1))
            assert prev.compose(d_i).is_zero()
            # exactness: rank d_i = dim ker(prev)
            ker_prev = sum(
                mat.shape[1] - linalg.rank(mat, p)
                for mat in prev.vertex_maps
            )
            rank_d = sum(linalg.rank(mat, p) for mat in d_i.vertex_maps)
            assert rank_d == ker_prev


def _reference_cover(m):
    """The projective cover as one morphism per generator: the standard
    vectors x completing rad M, each basis path pi: v -> w sent to its
    full action matrix times x, and the parts put side by side out of a
    newly built sum of the P(v)."""
    alg = m.algebra
    p = alg.p
    gens = []
    for vi, rad in enumerate(radical_spans(m)):
        comp, _ = linalg.basis_complement(rad)
        gens.extend((vi, x.reshape(-1, 1)) for x in comp.T)
    maps = [[linalg.zeros(d, 0)] for d in m.dims]
    for vi, x in gens:
        for w, group in enumerate(alg.path_groups[vi]):
            maps[w].extend(linalg.matmul(m.path_action(path), x, p)
                           for _, path in group)
    source = direct_sum(alg, [projective_module(alg, alg.vertices[vi])
                              for vi, _ in gens])
    cover = Morphism(source, m, [np.hstack(cols) for cols in maps])
    return cover, tuple(vi for vi, _ in gens)


def _reference_kernel(f):
    """ker f on the canonical spans of the vertex kernels, each arrow's
    matrix by solving for the coordinates of its image."""
    alg = f.source.algebra
    p = alg.p
    basis = [linalg.column_space_basis(linalg.kernel(mat, p), p)
             for mat in f.vertex_maps]
    maps = [linalg.solve(basis[w], linalg.matmul(f.source.arrow_maps[ai],
                                                 basis[u], p), p)
            for ai, (u, w) in enumerate(alg.arrow_ends)]
    sub = Representation(alg, [b.shape[1] for b in basis], maps)
    return sub, Morphism(sub, f.source, basis)


def _reference_resolution(m, max_length):
    """Covers of syzygies with each kernel computed, ending when it is
    zero: (terms, tops, differentials, augmentation, frontier, length)."""
    terms, tops, differentials = [], [], []
    augmentation = None
    frontier = (m, None)
    while frontier is not None and len(terms) <= max_length:
        syzygy, incl = frontier
        cover, top = _reference_cover(syzygy)
        if incl is None:
            augmentation = cover
        else:
            differentials.append(incl.compose(cover))
        terms.append(cover.source)
        tops.append(top)
        frontier = _reference_kernel(cover)
        if frontier[0].is_zero():
            frontier = None
    length = len(terms) - 1 if frontier is None else None
    return terms, tops, differentials, augmentation, frontier, length


def _same_rep(a, b):
    return (a.algebra is b.algebra and a.dims == b.dims and a.name == b.name
            and all(x.shape == y.shape and np.array_equal(x, y)
                    for x, y in zip(a.arrow_maps, b.arrow_maps, strict=True)))


def _same_map(f, g):
    return (_same_rep(f.source, g.source) and _same_rep(f.target, g.target)
            and all(x.shape == y.shape and np.array_equal(x, y)
                    for x, y in zip(f.vertex_maps, g.vertex_maps,
                                    strict=True)))


@pytest.mark.parametrize("name, source", _YONEDA_INPUTS,
                         ids=[name for name, _ in _YONEDA_INPUTS])
def test_resolutions_match_covers_with_every_kernel(alg_dir, name, source):
    """Every resolution, out to the default bound, entry by entry against
    covers built one generator at a time and kernels solved for their
    arrow matrices, ending only on a zero kernel: the resolution reads
    its covers from memoized path images, its syzygies at pivot rows and
    its end from dimension counts, and must build the same terms."""
    members = _corpus(alg_dir, name, source)
    algebra = members[0].algebra
    bound = default_resolution_bound(algebra)
    members += [simple_module(algebra, v) for v in algebra.vertices]
    for member in members:
        # a copy, so no cached resolution or cover is read
        m = Representation(algebra, member.dims, member.arrow_maps,
                           member.name)
        res = minimal_resolution(m, bound)
        terms, tops, differentials, augmentation, frontier, length = (
            _reference_resolution(m, bound))
        assert len(res.terms) == len(terms) and res.tops == tops, m
        assert all(_same_rep(a, b) for a, b in zip(res.terms, terms)), m
        assert len(res.differentials) == len(differentials), m
        assert all(_same_map(f, g) for f, g in zip(res.differentials,
                                                   differentials)), m
        assert _same_map(res.augmentation, augmentation), m
        if length is None:
            assert res.status == "truncated", m
            assert _same_rep(res.frontier[0], frontier[0]), m
            assert _same_map(res.frontier[1], frontier[1]), m
            assert projective_dimension(m, bound) is None
            continue
        assert (res.status, res.length, res.frontier) == (
            "terminated", length, None), m
        assert projective_dimension(m, bound) == length
        # past the end: one zero term, and zero maps into the last term
        # and then between zero terms, each built once
        zero = res.term(length + 1)
        assert zero.is_zero() and res.term(length + 3) is zero
        assert res.term_tops(length + 1) == ()
        into_last = res.differential(length + 1)
        assert into_last.is_zero() and into_last.source is zero
        assert into_last.target is res.terms[length]
        beyond = res.differential(length + 2)
        assert beyond.is_zero() and beyond.source is beyond.target is zero
        assert res.differential(length + 1) is into_last
        assert res.differential(length + 4) is beyond
