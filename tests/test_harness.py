import dataclasses
import hashlib
import json
import time

import pytest

from siltlab import harness
from siltlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_layer_label(a2_wb):
    labels = sorted(harness.layer_label(m) for m in a2_wb.members)
    assert labels == ["1", "2", "[2;1]"]


def test_reproduce_example_deterministic():
    first = harness.to_json_lines(harness.reproduce_example(2))
    second = harness.to_json_lines(harness.reproduce_example(2))
    assert first == second


def test_reproduce_example_field_independence():
    base = harness.reproduce_example(2)
    other = harness.reproduce_example(3)
    bool_keys = ["sincere", "pretilting", "presilting", "silting",
                 "tilting", "P1_in_perp_0_to_1", "P1_nonzero"]
    for k in bool_keys:
        assert base[k] == other[k]
    assert base["pd_T"] == other["pd_T"] == 0
    assert base["ext1_T_T"] == other["ext1_T_T"] == 0


def test_classify_header_and_rows(a2_wb):
    rows = harness.classify(a2_wb, max_summands=2)
    header = rows[0]
    assert header["kind"] == "classification"
    assert header["schema_version"] == harness.SCHEMA_VERSION
    assert header["completeness"] == "certified-by-classification"
    assert "finite-dimensional semantics" in header["semantics"]
    # empty + 3 singletons + 3 pairs
    assert len(rows) - 1 == 7
    tilting = {frozenset(r["module"].split("+"))
               for r in rows[1:] if r["tilting"]}
    assert tilting == {frozenset({"P2", "S2"}), frozenset({"S1", "P2"})}


def test_classify_max_one_no_tilting(a2_wb):
    rows = harness.classify(a2_wb, max_summands=1)
    assert not any(r["tilting"] for r in rows[1:])


def test_verify_theorems_a2(a2_wb):
    rows = harness.verify_theorems(a2_wb)
    assert rows[-1]["failed_total"] == 0
    candidate_rows = [r for r in rows if r.get("kind") == "candidate"]
    byname = {r["module"]: r for r in candidate_rows}
    p2 = byname["P2"]
    assert p2["verdicts"]["sincere"] is True
    assert p2["verdicts"]["pretilting"] is True
    assert p2["verdicts"]["tilting"] is False


def test_verify_theorems_cycle_has_skips(cyc2_wb):
    rows = harness.verify_theorems(cyc2_wb)
    assert rows[-1]["failed_total"] == 0
    summaries = {r["theorem"]: r for r in rows if r.get("kind") == "theorem"}
    t42 = summaries["selforth_sincere_silting_iff_tilting"]
    reasons = t42.get("skip_reasons", {})
    assert any("pd undecided" in r for r in reasons), reasons


def test_cli_algebra_info(capsys, alg_dir):
    code, out, _ = run_cli(capsys, "algebra", "info",
                           str(alg_dir / "a2.alg"))
    assert code == 0
    row = json.loads(out)
    assert row["dimension"] == 3
    assert row["family"] == "hereditary-An"


def test_cli_indec_list(capsys, alg_dir):
    code, out, _ = run_cli(capsys, "indec", "list",
                           str(alg_dir / "nakayama_a3.alg"))
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[0]["size"] == 5
    names = {l["name"] for l in lines[1:]}
    assert names == {"S1", "S2", "S3", "P2", "P3"}


def test_cli_check_verdicts(capsys, alg_dir):
    a2 = str(alg_dir / "a2.alg")
    code, out, _ = run_cli(capsys, "check", a2,
                           "--module", "P2", "--predicate", "sincere")
    assert code == 0
    assert json.loads(out)["verdict"] is True
    code, out, _ = run_cli(capsys, "check", a2,
                           "--module", "P2", "--predicate", "tilting")
    assert code == 1
    assert json.loads(out)["verdict"] is False
    code, out, _ = run_cli(capsys, "check", a2,
                           "--module", "P2+S2", "--predicate", "tilting")
    assert code == 0


def test_cli_check_route_flag(capsys, alg_dir):
    code, out, _ = run_cli(capsys, "check", str(alg_dir / "a2.alg"),
                           "--module", "S1+P2", "--predicate", "tilting",
                           "--route", "definition")
    assert code == 0
    assert json.loads(out)["route"] == "definition"


def test_cli_input_errors(capsys, alg_dir, tmp_path):
    code, _, err = run_cli(capsys, "algebra", "info",
                           str(tmp_path / "missing.alg"))
    assert code == 2
    bad = tmp_path / "bad.alg"
    bad.write_text("field 2\nvertices 1\nbogus key\n")
    code, _, err = run_cli(capsys, "algebra", "info", str(bad))
    assert code == 2
    assert "line 3" in err
    code, _, err = run_cli(capsys, "check", str(alg_dir / "a2.alg"),
                           "--module", "Nope", "--predicate", "sincere")
    assert code == 2
    code, _, err = run_cli(capsys, "check", str(alg_dir / "a2.alg"),
                           "--module", "P2", "--predicate", "shiny")
    assert code == 2


def test_cli_rejects_negative_max_summands(capsys, alg_dir):
    for command in ("verify-theorems", "classify"):
        code, out, err = run_cli(capsys, command, str(alg_dir / "a2.alg"),
                                 "--max-summands", "-1")
        assert code == 2 and out == ""
        assert "max_summands must be at least 0" in err
    code, out, _ = run_cli(capsys, "classify", str(alg_dir / "a2.alg"),
                           "--max-summands", "0")
    assert code == 0


def test_cli_rejects_route_for_other_predicates(capsys, alg_dir):
    code, out, err = run_cli(capsys, "check", str(alg_dir / "a2.alg"),
                             "--module", "S1+P2", "--predicate", "silting",
                             "--route", "definition")
    assert code == 2 and out == ""
    assert "--route applies to the tilting predicate only" in err


def test_cli_oversized_field_rejected_fast(capsys, tmp_path):
    big = tmp_path / "big.alg"
    big.write_text("field 1000000000000000003\nvertices 1\n")
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "algebra", "info", str(big))
    assert code == 2
    assert "exceeds" in err
    assert time.perf_counter() - start < 1.0


def test_cli_strict_undecidable(capsys, alg_dir):
    cyc = str(alg_dir / "nakayama_cycle2.alg")
    code, out, _ = run_cli(capsys, "--strict", "check", cyc,
                           "--module", "S1", "--predicate", "pretilting")
    assert code == 3
    assert json.loads(out)["verdict"] is None
    code, out, _ = run_cli(capsys, "check", cyc,
                           "--module", "S1", "--predicate", "pretilting")
    assert code == 0


def test_cli_verify_theorems_exit_zero(capsys, alg_dir):
    code, out, _ = run_cli(capsys, "verify-theorems",
                           str(alg_dir / "a2.alg"))
    assert code == 0
    last = json.loads(out.splitlines()[-1])
    assert last["failed_total"] == 0


def test_cli_reproduce_example(capsys):
    code, out, _ = run_cli(capsys, "reproduce-example")
    assert code == 0
    row = json.loads(out)
    assert row["T"] == "[2;1]"
    assert len(row["corpus"]) == 3


def test_cli_table_format(capsys, alg_dir):
    code, out, _ = run_cli(capsys, "--format", "table", "indec", "list",
                           str(alg_dir / "a2.alg"))
    assert code == 0
    assert "name" in out and "S1" in out


def test_max_dim_env_validation(capsys, alg_dir, monkeypatch):
    monkeypatch.setenv("SILTLAB_MAX_DIM", "zero")
    code, _, err = run_cli(capsys, "indec", "list",
                           str(alg_dir / "a2.alg"), "--strategy", "brute")
    assert code == 2
    monkeypatch.setenv("SILTLAB_MAX_DIM", "3")
    code, out, _ = run_cli(capsys, "indec", "list",
                           str(alg_dir / "a2.alg"), "--strategy", "brute")
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert header["completeness"] == "brute-force-up-to-dim-3"


# sha256 of the full classify report, pinned so that refactors of the
# predicates prove byte-identity.  A change that alters a verdict column on
# purpose (such as a corrected silting test) updates these and says why.
GOLDEN_CLASSIFY_SHA256 = {
    "a2_wb":
        "6575301f00819aac82ea7c3553529065757fae8141ffaca42000618d2930712b",
    "a3_wb":
        "139e9cb878c49d047617f0c7b0c99d6a2f00b4a469abc5717b97b236bcc2b88d",
    "nak3_wb":
        "c8d18c8d77a2f7dc11dec47a849ffa4b387e5efc4d5bc8a00e94b96e1f520f1c",
    "cyc2_wb":
        "2f8419673d2c03a1d88051d49b362f8c95787cbce9f4ea1a8566b51b24998902",
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN_CLASSIFY_SHA256))
def test_classify_report_golden_hash(request, fixture):
    wb = request.getfixturevalue(fixture)
    text = harness.to_json_lines(harness.classify(wb))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_CLASSIFY_SHA256[fixture]


# sha256 of the full verify-theorems report (a4 up to 3 summands), pinned
# like the classify hashes above; these are the bytes that Gen = Pres reaches.
GOLDEN_VERIFY_SHA256 = {
    "a2_wb":
        "707bf6ff5161d97b564372aae3c5226451a51c10bfe52a3bb4c136e61ec8787a",
    "a3_wb":
        "16a6fac816843c383c04450418041ecb26a430ce1e2adedc0a1fda2456cbe5c5",
    "nak3_wb":
        "51bd92df8bab1ac78b142edad265baacd6362c0e825729e891043bab6d014e83",
    "cyc2_wb":
        "52369dc14b362cd1b9d765d2bedff0a38b742cc2b77cfdde992968e409caf578",
    "a4_wb":
        "c19c622036df4bc0b2dd673dd507e32d77c81fdfa5caa0376759970ac350c200",
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN_VERIFY_SHA256))
def test_verify_report_golden_hash(request, fixture):
    wb = request.getfixturevalue(fixture)
    max_summands = 3 if fixture == "a4_wb" else None
    text = harness.to_json_lines(harness.verify_theorems(wb, max_summands))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_VERIFY_SHA256[fixture]


# sha256 of `siltlab indec list --strategy brute` at SILTLAB_MAX_DIM=4,
# pinned like the report hashes above: the brute corpus runs the
# indecomposability and isomorphism searches on every representation.
GOLDEN_BRUTE_SHA256 = {
    "a2": "4d8c1d833ceec49b9bcd9f876d58d584c62c1bf7549899406cefce5664b184cb",
    "a3": "7a00f13330325644eb335fabea27bbd52066100aecf243d5edda2cc9c1dd06d0",
    "a4": "cb0b3761be7f57af32da8f89d4fd7bd882645d73bdf9e4ef1f16db4a18cb9d51",
    "nakayama_a3":
        "bf1e88c9969ed335144327c3759fe3a0cb41d461101a088cc3e9500d6ab3b351",
    "nakayama_cycle2":
        "29f9d06995e8785275910a2d20049baca34e959c4cf5887a92adffde10b1c53a",
}

# The same at SILTLAB_MAX_DIM=5, where the relations of the 2-cycle keep
# 539 of its roughly 9,000 matrix tuples.
GOLDEN_BRUTE_DIM5_SHA256 = {
    "nakayama_cycle2":
        "4187b70896a9dd42ce4acb0fd6f3b5be6808256259f938adc77e246f5b5834d0",
}


def _brute_digest(capsys, alg_dir, monkeypatch, name, dim):
    monkeypatch.setenv("SILTLAB_MAX_DIM", str(dim))
    code, out, _ = run_cli(capsys, "indec", "list",
                           str(alg_dir / f"{name}.alg"), "--strategy", "brute")
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_BRUTE_SHA256))
def test_brute_corpus_golden_hash(capsys, alg_dir, monkeypatch, name):
    digest = _brute_digest(capsys, alg_dir, monkeypatch, name, 4)
    assert digest == GOLDEN_BRUTE_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_BRUTE_DIM5_SHA256))
def test_brute_corpus_golden_hash_dim5(capsys, alg_dir, monkeypatch, name):
    digest = _brute_digest(capsys, alg_dir, monkeypatch, name, 5)
    assert digest == GOLDEN_BRUTE_DIM5_SHA256[name]


def test_default_strategy(a2_parsed, nak3_parsed):
    assert harness.default_strategy(a2_parsed) == "classified"
    assert harness.default_strategy(nak3_parsed) == "classified"
    generic = dataclasses.replace(a2_parsed, family="generic")
    assert harness.default_strategy(generic) == "brute"
