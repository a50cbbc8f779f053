import itertools

import numpy as np
import pytest

from siltlab import reps, zoo
from siltlab.algfile import load_algebra_file, parse_algebra_file
from siltlab.corpus import (
    _all_representations,
    _assign_names,
    _nakayama_members,
    _sorted_members,
    _splits_off_simple,
    decompose,
    enumerate_indecomposables,
    is_indecomposable,
)
from siltlab.harness import load_workbench, verify_theorems
from siltlab.reps import (
    Morphism,
    direct_sum,
    hom_dim,
    hom_space,
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
    summed = direct_sum(alg, [p2, s1])
    assert not is_indecomposable(summed)


def test_basis_map_splits_large_end(a2_algebra, monkeypatch):
    """End(S1^5) has dimension 25; a basis endomorphism already splits
    S1^5 along its Fitting decomposition, so no radical is computed."""
    def unreachable(*args):
        raise AssertionError("the radical of End was computed")

    monkeypatch.setattr(reps, "_radical", unreachable)
    s1 = simple_module(a2_algebra, "1")
    m = direct_sum(a2_algebra, [s1], [5])
    assert hom_dim(m, m) == 25
    assert not is_indecomposable(m)


LOCAL_LOOP_F257 = """field 257
family generic
vertices 1
arrow x: 1 -> 1
relation x*x*x
nilpotency 3
"""


def test_local_end_over_large_field_is_decided():
    """P1 = k[x]/(x^3) over F257 is local with a 3-dimensional End: every
    basis map is nilpotent or invertible, so no Fitting decomposition
    splits it, and the radical (x, x^2) decides it indecomposable."""
    alg = parse_algebra_file(LOCAL_LOOP_F257).build()
    p1 = projective_module(alg, "1")
    basis = hom_space(p1, p1)
    assert len(basis) == 3
    for f in basis:
        power = f.compose(f).compose(f)
        assert power.is_zero() or power.is_iso()
    assert len(reps._radical(p1)) == 2
    assert is_indecomposable(p1)
    assert not is_indecomposable(direct_sum(alg, [p1, p1]))


def _has_nontrivial_idempotent(m):
    """Reference: test every combination of the End basis for e^2 = e,
    e not 0 or 1, with Python-int matrix products."""
    p = m.algebra.p
    basis = [[mat.tolist() for mat in f.vertex_maps]
             for f in hom_space(m, m)]
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        maps = [[[sum(c * f[v][i][j] for c, f in zip(coeffs, basis)) % p
                  for j in range(d)] for i in range(d)]
                for v, d in enumerate(m.dims)]
        square = [[[sum(e[i][k] * e[k][j] for k in range(len(e))) % p
                    for j in range(len(e))] for i in range(len(e))]
                  for e in maps]
        identity = [[[int(i == j) for j in range(len(e))]
                     for i in range(len(e))] for e in maps]
        if square == maps and any(coeffs) and maps != identity:
            return True
    return False


KRONECKER_F3 = """field 3
vertices 1 2
arrow a: 1 -> 2
arrow b: 1 -> 2
"""

LOCAL_LOOP_F3 = LOCAL_LOOP_F257.replace("257", "3")


# Sizes: every representation up to the dimension bound whose End has at
# most 2^12 elements, so the reference search stays small.  The Kronecker
# quiver has modules with End/rad = F_p^2 (a degree-2 irreducible
# polynomial), and k[x]/(x^3) has local Ends with a nonzero radical.
@pytest.mark.parametrize("name, dim_bound", [
    ("a3", 5),
    ("nakayama_cycle2", 5),
    ("kronecker_f2", 4),
    ("kronecker_f3", 4),
    ("local_loop_f3", 3),
])
def test_indecomposable_matches_idempotent_search(alg_dir, name, dim_bound):
    alg = _parsed(alg_dir, name).build()
    checked = 0
    for rep in _all_representations(alg, dim_bound):
        if alg.p ** hom_dim(rep, rep) > 1 << 12:
            continue
        assert is_indecomposable(rep) == (
            not _has_nontrivial_idempotent(rep)), rep.arrow_maps
        checked += 1
    assert checked > 50


def _reference_representations(algebra, dim_bound):
    """(dims, arrow matrices as lists of lists) of every representation up
    to dim_bound, in itertools.product order of all matrix entries, kept
    when each signed relation sums to zero under Python-int products."""
    q = algebra.quiver
    p = algebra.p

    def mul(a, b, rows, inner, cols):
        return [[sum(a[i][k] * b[k][j] for k in range(inner)) % p
                 for j in range(cols)] for i in range(rows)]

    def acts_as_zero(rel, dims, maps):
        total = None
        for coeff, path in rel:
            start = q.vertex_index(path.start)
            d = dims[start]
            mat = [[int(i == j) for j in range(d)] for i in range(d)]
            at = start
            for ai in path.arrows:
                nxt = q.vertex_index(q.arrows[ai].target)
                mat = mul(maps[ai], mat, dims[nxt], dims[at], d)
                at = nxt
            term = [coeff * x for row in mat for x in row]
            total = term if total is None else [
                x + y for x, y in zip(total, term)]
        return all(x % p == 0 for x in total)

    out = []
    for total_dim in range(1, dim_bound + 1):
        for dims in itertools.product(range(total_dim + 1),
                                      repeat=len(q.vertices)):
            if sum(dims) != total_dim:
                continue
            shapes = [(dims[q.vertex_index(a.target)],
                       dims[q.vertex_index(a.source)]) for a in q.arrows]
            n = sum(r * c for r, c in shapes)
            for flat in itertools.product(range(p), repeat=n):
                maps = []
                pos = 0
                for r, c in shapes:
                    maps.append([list(flat[pos + i * c:pos + (i + 1) * c])
                                 for i in range(r)])
                    pos += r * c
                if all(acts_as_zero(rel, dims, maps)
                       for rel in algebra.relations.relations):
                    out.append((dims, maps))
    return out


SIGNED_SQUARE_F5 = """field 5
vertices 1 2 3
arrow a: 2 -> 1
arrow b: 3 -> 2
arrow c: 2 -> 1
arrow d: 3 -> 2
relation a*b - c*d
"""

CYCLE2_LENGTH3_F2 = """field 2
vertices 1 2
arrow a: 1 -> 2
arrow b: 2 -> 1
relation a*b*a
relation b*a*b
nilpotency 3
"""

_SHIPPED = ["a2", "a3", "a4", "nakayama_a3", "nakayama_cycle2"]
_BUILT = {
    "cyclic_nakayama_2_f3": lambda: zoo.cyclic_nakayama_2(3),
    "cycle2_length3_f2": lambda: parse_algebra_file(CYCLE2_LENGTH3_F2),
    "signed_square_f5": lambda: parse_algebra_file(SIGNED_SQUARE_F5),
    "a2_f65521": lambda: zoo.a2(65521),
    "kronecker_f2": lambda: parse_algebra_file(
        KRONECKER_F3.replace("field 3", "field 2")),
    "kronecker_f3": lambda: parse_algebra_file(KRONECKER_F3),
    "local_loop_f3": lambda: parse_algebra_file(LOCAL_LOOP_F3),
}


def _parsed(alg_dir, name):
    if name in _SHIPPED:
        return load_algebra_file(alg_dir / f"{name}.alg")
    return _BUILT[name]()


# The shipped algebras over F2 fill at most one block per dimension
# vector.  The 2-cycle over F3 at dimension 4 has 3^8 tuples for dims
# (2, 2): nine blocks of 3^6 rows.  The length-3 relations of the other
# 2-cycle test the arrow order along a path.  The signed square over F5
# needs dimension 3 before its relation has a path to act through.  Over
# F65521 every block is one row of high digits.
@pytest.mark.parametrize("name, dim_bound", [
    *[(name, 4) for name in _SHIPPED],
    ("cyclic_nakayama_2_f3", 4),
    ("cycle2_length3_f2", 4),
    ("signed_square_f5", 3),
    ("a2_f65521", 2),
])
def test_enumerator_matches_python_int_reference(alg_dir, name, dim_bound):
    alg = _parsed(alg_dir, name).build()
    got = [(rep.dims, [mat.tolist() for mat in rep.arrow_maps])
           for rep in _all_representations(alg, dim_bound)]
    assert got == _reference_representations(alg, dim_bound)


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
    the same dimension vector and dim Hom(P2, P1) = 2.  P2 is
    indecomposable, so is_isomorphic decides the pair from the two basis
    maps alone.  The classified members and their names are those of the
    full product-order search."""
    alg = parse_algebra_file(CYCLE2_LENGTH4_F257).build()
    p1 = projective_module(alg, "1")
    p2 = projective_module(alg, "2")
    assert p1.dims == p2.dims and hom_dim(p2, p1) == 2
    assert is_indecomposable(p2) and not is_isomorphic(p2, p1)
    members = _sorted_members(_nakayama_members(alg))
    assert [m.dims for m in members] == [
        (0, 1), (1, 0), (1, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 2)]
    assert _assign_names(alg, members) == [
        "S2", "S1", "2|2", "1|2", "2|3", "1|3", "P2", "P1"]


def test_cycle2_length4_f257_loads_and_verifies():
    """End(P1) = k[c]/(c^2) is local and has 257^2 - 1 nonzero elements,
    past the cap of an idempotent search; its radical decides P1
    indecomposable, so the classified corpus loads and the theorem sweep
    passes."""
    wb = load_workbench(parse_algebra_file(CYCLE2_LENGTH4_F257))
    assert wb.names == ["S2", "S1", "2|2", "1|2", "2|3", "1|3", "P2", "P1"]
    assert verify_theorems(wb)[-1]["failed_total"] == 0


# Decomposable tuples the certificate rejects, and all decomposable
# relation-satisfying tuples, of the shipped algebras at dimension <= 5
_CERTIFIED = {
    "a3": (648, 699),
    "a4": (1307, 1410),
    "nakayama_a3": (549, 564),
    "nakayama_cycle2": (514, 535),
}


@pytest.mark.parametrize("name, dim_bound", [
    *[(name, 5) for name in _CERTIFIED],
    ("kronecker_f2", 4),
    ("kronecker_f3", 3),
    ("local_loop_f3", 3),
    ("cycle2_length3_f2", 4),
    ("signed_square_f5", 3),
])
def test_simple_summand_certificate_is_exact(alg_dir, name, dim_bound):
    """Every tuple the brute enumeration drops before solving End M is
    decomposable by the exact test."""
    alg = _parsed(alg_dir, name).build()
    rejected = decomposable = 0
    for rep in _all_representations(alg, dim_bound):
        certified = _splits_off_simple(rep)
        indecomposable = is_indecomposable(rep)
        assert not (certified and indecomposable), rep.arrow_maps
        rejected += certified
        decomposable += not indecomposable
    assert rejected > 0
    if name in _CERTIFIED:
        assert (rejected, decomposable) == _CERTIFIED[name]


def test_certificate_needs_the_socle_outside_the_radical(a2_algebra):
    """P2 of A2 (1 <- 2) has its socle S1 inside its radical, so it is not
    certified; in S1 + P2 one socle vector at 1 lies outside the radical.
    A simple module has no complement to split off."""
    s1 = simple_module(a2_algebra, "1")
    p2 = projective_module(a2_algebra, "2")
    assert not _splits_off_simple(p2)
    assert not _splits_off_simple(s1)
    assert _splits_off_simple(direct_sum(a2_algebra, [s1, p2]))


def _names_by_isomorphism(algebra, members):
    """Reference for corpus._assign_names: each member takes the first
    unused label among S(v), P(v), I(v), in that order, whose standard
    module it is isomorphic to, else its own unused name or X<index>."""
    standards = [(f"S{v}", simple_module(algebra, v))
                 for v in algebra.vertices]
    standards += [(f"P{v}", projective_module(algebra, v))
                  for v in algebra.vertices]
    standards += [(f"I{v}", injective_module(algebra, v))
                  for v in algebra.vertices]
    names = []
    used = set()
    for idx, m in enumerate(members):
        name = next((label for label, std in standards
                     if label not in used and m.dims == std.dims
                     and is_isomorphic(m, std)), None)
        if name is None:
            name = m.name if m.name and m.name not in used else f"X{idx}"
        used.add(name)
        names.append(name)
    return names


_NAMING_INPUTS = {
    **{f"{file[:-4]}_f{p}": (lambda file=file, p=p:
                             zoo.STANDARD_FILES[file](p))
       for file in zoo.STANDARD_FILES for p in (2, 3)},
    "cycle2_length4_f257": lambda: parse_algebra_file(CYCLE2_LENGTH4_F257),
    "local_loop_f3": lambda: parse_algebra_file(LOCAL_LOOP_F3),
}


@pytest.mark.parametrize("name, strategy, dim_bound", [
    *[(name, "classified", None) for name in _NAMING_INPUTS],
    *[(f"{file[:-4]}_f2", "brute", 5) for file in zoo.STANDARD_FILES],
    ("local_loop_f3", "brute", 3),
])
def test_names_match_isomorphism_reference(name, strategy, dim_bound):
    """Names read from dimension vectors, top and socle are those of the
    isomorphism tests, and naming leaves no Hom space cached against a
    module outside the corpus."""
    alg = _NAMING_INPUTS[name]().build()
    corpus = enumerate_indecomposables(alg, strategy, dim_bound=dim_bound)
    if strategy == "brute":
        for m in corpus.members:
            for key in m._cache:  # the ("hom", n) keys are its tuples
                if isinstance(key, tuple):
                    assert any(key[1] is x for x in corpus.members)
    assert corpus.names == _names_by_isomorphism(alg, corpus.members)


def test_simple_projective_and_projective_injective_names(a2_algebra):
    """In A2 (1 <- 2), S1 = P1 is named S1, as S comes before P, and
    P2 = I1 is named P2, as P comes before I."""
    corpus = enumerate_indecomposables(a2_algebra, "classified")
    named = dict(zip(corpus.names, corpus.members))
    assert sorted(named) == ["P2", "S1", "S2"]
    assert is_isomorphic(named["S1"], projective_module(a2_algebra, "1"))
    assert is_isomorphic(named["P2"], injective_module(a2_algebra, "1"))


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
    summed = direct_sum(alg, reps, counts)
    assert decompose(summed, wb.corpus) == mults


@pytest.mark.parametrize("wb_name", ["a3_wb", "nak3_wb", "cyc2_wb"])
def test_decompose_round_trips_random_sums(request, wb_name):
    wb = request.getfixturevalue(wb_name)
    rng = np.random.default_rng(7)
    for _ in range(20):
        counts = [int(c) for c in rng.integers(0, 3, size=len(wb.members))]
        summed = direct_sum(wb.algebra, wb.members, counts)
        assert decompose(summed, wb.corpus) == {
            i: c for i, c in enumerate(counts) if c}


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
    from siltlab.corpus import Corpus

    wb = a3_wb
    truncated = Corpus(wb.algebra, wb.members[:2], wb.names[:2],
                       "truncated-for-test")
    big = wb.members[-1]
    if big.dims != wb.members[0].dims:
        with pytest.raises(RuntimeError):
            decompose(big, truncated)


def test_decompose_singular_corpus_raises(a2_algebra):
    """A corpus listing S1 twice has a singular Hom-dimension matrix,
    which fixes no multiplicities: every prime is passed over until their
    product exceeds Hadamard's bound, and decompose refuses."""
    from siltlab.corpus import Corpus

    s1 = simple_module(a2_algebra, "1")
    twice = Corpus(a2_algebra, [s1, s1], ["S1", "S1'"], "duplicated-for-test")
    with pytest.raises(RuntimeError, match="singular"):
        decompose(direct_sum(a2_algebra, [s1]), twice)


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
