"""Acceptance gate: the eight headline criteria, at stated tolerances.

All verdicts here are exact decisions over prime fields; "tolerance" only
ever refers to runtime budgets, never to numerical slack.
"""

import time
import warnings

import numpy as np
import pytest
from conftest import whole_sum

from siltlab import harness, linalg
from siltlab.cli import main as cli_main
from siltlab.homology import ext_dim, minimal_presentation, projective_cover
from siltlab.modclasses import gen_contains
from siltlab.predicates import (
    is_cosincere,
    is_presilting,
    is_silting,
    is_sincere,
    is_tilting,
    satisfies_facsub,
    satisfies_subfac,
    vanishing_t3prime,
)
from siltlab.reps import (
    direct_sum,
    factorize,
    hom_dim,
    hom_space,
    radical_spans,
    simple_module,
)
from siltlab.theorems import check_candidate, evaluate_candidate


@pytest.fixture(scope="module")
def five_workbenches(a2_wb, a3_wb, a4_wb, nak3_wb, cyc2_wb):
    return {
        "A2": a2_wb,
        "A3": a3_wb,
        "A4": a4_wb,
        "nakayama-A3": nak3_wb,
        "cycle-2": cyc2_wb,
    }


# -- criterion 1: worked-example reproduction -------------------------------


def test_criterion_1_worked_example():
    start = time.perf_counter()
    report = harness.reproduce_example(2)
    elapsed = time.perf_counter() - start
    assert len(report["corpus"]) == 3
    assert report["T"] == "[2;1]"
    assert report["sincere"] is True
    assert report["pd_T"] == 0
    assert report["ext1_T_T"] == 0
    assert report["P1_nonzero"] is True
    assert report["P1_in_perp_0_to_1"] is True
    assert report["pretilting"] is True
    assert report["presilting"] is True
    assert report["silting"] is False
    assert report["tilting"] is False
    assert elapsed < 1.0, f"worked example took {elapsed:.2f}s"


# -- criterion 2: the sincerity square --------------------------------------


def test_criterion_2_sincerity_square(five_workbenches):
    start = time.perf_counter()
    for label, wb in five_workbenches.items():
        candidates = wb.all_candidates()
        assert len(candidates) >= 2 ** len(wb.members)
        for cand in candidates:
            verdicts = {
                "sincere": is_sincere(wb, cand).verdict,
                "cosincere": is_cosincere(wb, cand).verdict,
                "subfac": satisfies_subfac(wb, cand).verdict,
                "facsub": satisfies_facsub(wb, cand).verdict,
            }
            assert len(set(verdicts.values())) == 1, (
                f"{label}: square broken on {wb.candidate_name(cand)}: "
                f"{verdicts}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"square sweep took {elapsed:.1f}s"


# -- criterion 3: sincere silting = presilting + vanishing ------------------


def test_criterion_3_sincere_silting_characterization(five_workbenches):
    for label, wb in five_workbenches.items():
        for cand in wb.all_candidates():
            # is_presilting certifies agreement of the D_sigma route and
            # the Gen-in-perp1 route internally (raises on disagreement)
            presilting = is_presilting(wb, cand).verdict
            silting = is_silting(wb, cand).verdict
            sincere = is_sincere(wb, cand).verdict
            vanishing = vanishing_t3prime(wb, cand).verdict
            assert (sincere and silting) == (presilting and vanishing), (
                f"{label}: {wb.candidate_name(cand)}"
            )


# -- criterion 4: tilting characterizations, with a live Ext^2 --------------


def test_criterion_4_tilting_characterizations(five_workbenches, nak3_wb):
    # precondition: the suite must exercise a nonzero Ext^2 group,
    # from the resolution 0 -> P1 -> P2 -> P3 -> S3 -> 0
    s3 = simple_module(nak3_wb.algebra, "3")
    s1 = simple_module(nak3_wb.algebra, "1")
    assert ext_dim(2, s3, s1) == 1
    ext2_exercised = False
    for label, wb in five_workbenches.items():
        for cand in wb.all_candidates():
            tilting = is_tilting(wb, cand, routes=("definition",)).verdict
            sincere = is_sincere(wb, cand).verdict
            silting = is_silting(wb, cand).verdict
            vanishing = vanishing_t3prime(wb, cand).verdict
            gen = wb.gen_set(cand)
            perp12 = all(wb.ext_from_candidate(d, cand, j) == 0
                         for j in gen for d in (1, 2))
            perp2 = all(wb.ext_from_candidate(2, cand, j) == 0
                        for j in gen)
            if wb is nak3_wb and any(
                wb.ext_from_candidate(2, cand, j) != 0 for j in gen
            ):
                ext2_exercised = True
            name = f"{label}: {wb.candidate_name(cand)}"
            assert tilting == (vanishing and perp12), name
            assert tilting == (sincere and silting and perp2), name
    assert ext2_exercised, "no instance with nonzero Ext^2 over Gen"


# -- criterion 5: self-orthogonality vs tilting, and honest skips -----------


def test_criterion_5_selforth_finite_gldim(nak3_wb):
    wb = nak3_wb
    checked = 0
    for cand in wb.all_candidates():
        ev = evaluate_candidate(wb, cand)
        v = ev.verdicts
        if not (v["sincere"] and v["silting"]):
            continue
        checked += 1
        assert v["self_orthogonal"] is not None  # gldim finite: decidable
        assert v["self_orthogonal"] == v["tilting"]
        if not v["tilting"]:
            # an explicit nonzero Ext witness must exist
            pd = wb.candidate_pd(cand)
            found = any(
                wb.ext(d, i, j)
                for d in range(1, pd + 1)
                for i in cand for j in cand
            )
            assert found, wb.candidate_name(cand)
    assert checked > 0


def test_criterion_5_undecided_pd_is_skipped(cyc2_wb):
    rows = harness.verify_theorems(cyc2_wb)
    assert rows[-1]["failed_total"] == 0
    summaries = {r["theorem"]: r for r in rows
                 if r.get("kind") == "theorem"}
    skipped = 0
    for name in ("selforth_sincere_silting_iff_tilting",
                 "route_agreement"):
        reasons = summaries[name].get("skip_reasons", {})
        skipped += sum(cnt for reason, cnt in reasons.items()
                       if "undecided" in reason or "pd" in reason)
    assert skipped > 0


# -- criterion 6: tilting census vs an independent oracle -------------------

GOLDEN_TILTING_COUNTS = {2: 2, 3: 5, 4: 14}
CATALAN = {2: 2, 3: 5, 4: 14}


def _direct_tilting_oracle(wb):
    """Gen T = T-perp1 tested directly on explicit direct sums, without
    the workbench pair tables."""
    count = 0
    winners = []
    for cand in wb.all_candidates():
        if not cand:
            continue
        t = whole_sum(wb, cand)
        if all(gen_contains(t, m) == (ext_dim(1, t, m) == 0)
               for m in wb.members):
            count += 1
            winners.append(cand)
    return count, winners


def test_criterion_6_tilting_census(five_workbenches):
    by_n = {2: five_workbenches["A2"], 3: five_workbenches["A3"],
            4: five_workbenches["A4"]}
    for n, wb in by_n.items():
        oracle_count, winners = _direct_tilting_oracle(wb)
        assert oracle_count == GOLDEN_TILTING_COUNTS[n], (
            f"n={n}: oracle found {oracle_count}"
        )
        # the workbench route must agree with the oracle candidate by
        # candidate, not merely in count
        for cand in wb.all_candidates():
            if not cand:
                continue
            wb_verdict = is_tilting(wb, cand,
                                    routes=("definition",)).verdict
            assert wb_verdict == (cand in winners), wb.candidate_name(cand)
        if oracle_count != CATALAN[n]:
            warnings.warn(
                f"tilting count for n={n} deviates from the Catalan "
                f"expectation {CATALAN[n]}: got {oracle_count}; "
                "recorded for investigation"
            )


# -- criterion 7: infrastructure properties ---------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_criterion_7_rank_nullity(p):
    rng = np.random.default_rng(7_000 + p)
    for _ in range(1000):
        m = int(rng.integers(0, 9))
        n = int(rng.integers(0, 9))
        a = rng.integers(0, p, size=(m, n)).astype(np.int64)
        ech = linalg.row_reduce(a, p)
        assert ech.rank + ech.kernel_basis.shape[1] == n


def test_criterion_7_hom_additivity(five_workbenches):
    for wb in five_workbenches.values():
        members = wb.members
        for i, m in enumerate(members):
            for j, n in enumerate(members):
                summed = direct_sum(wb.algebra, [m, n])
                for x in members:
                    assert hom_dim(summed, x) == (
                        hom_dim(m, x) + hom_dim(n, x))


def test_criterion_7_ext0_is_hom(five_workbenches):
    for wb in five_workbenches.values():
        for m in wb.members:
            for n in wb.members:
                assert ext_dim(0, m, n) == hom_dim(m, n)


def test_criterion_7_dsigma_inside_perp1(five_workbenches):
    for wb in five_workbenches.values():
        for i, t in enumerate(wb.members):
            pres = minimal_presentation(t)
            for j, x in enumerate(wb.members):
                if wb.dsig(i, j):
                    assert ext_dim(1, t, x) == 0


def test_criterion_7_cover_minimality(five_workbenches):
    for wb in five_workbenches.values():
        p = wb.algebra.p
        for m in wb.members:
            cover = projective_cover(m)
            assert cover.is_epi()
            incl = factorize(cover)["kernel_inclusion"]
            rad = radical_spans(cover.source)
            for i in range(wb.algebra.n_vertices):
                assert linalg.solve(
                    rad[i], incl.vertex_maps[i], p) is not None


# -- criterion 8: determinism -----------------------------------------------


def test_criterion_8_determinism(alg_dir, capsys):
    path = str(alg_dir / "nakayama_a3.alg")
    code1 = cli_main(["verify-theorems", path])
    out1 = capsys.readouterr().out
    code2 = cli_main(["verify-theorems", path])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    assert out1  # sanity: the report is not empty
