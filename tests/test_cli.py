"""Command-line surface: subcommands, exit codes, reproducible reports."""

import functools
import json
import os
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from graypath.cli import main
from graypath import presentation as pres
from graypath.fixtures import fixture


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_fixtures_list():
    r = run("fixtures", "list")
    assert r.exit_code == 0
    assert "TWIST" in r.output and "BIG" in r.output


def test_check_gray_fixture_and_file(tmp_path):
    r = run("check", "gray", "BIG")
    assert r.exit_code == 0
    assert "all checks passed" in r.output
    path = tmp_path / "big.graycat.json"
    pres.save(fixture("BIG"), str(path))
    r = run("check", "gray", str(path))
    assert r.exit_code == 0


def test_check_m_json_report():
    r = run("--report", "json", "check", "m", "INT")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["schema"] == 1
    assert doc["ok"] is True
    laws = {rep["law"] for rep in doc["reports"]}
    assert "cocycle" in laws and "local-sesquifunctor" in laws


def test_json_reports_are_byte_identical():
    a = run("--report", "json", "check", "gray", "PAIR").output
    b = run("--report", "json", "check", "gray", "PAIR").output
    assert a == b


def test_validate_corrupted_exits_2(tmp_path):
    bad = tmp_path / "corrupted.json"
    bad.write_text('{"format": "graycat/1"}', encoding="utf-8")
    r = run("validate", str(bad))
    assert r.exit_code == 2
    doc = pres.to_document(fixture("BIG"))
    for e in doc["two_cells"]:
        if e["id"] == "alpha":
            e["tgt"] = "idx"
    worse = tmp_path / "badface.json"
    worse.write_text(json.dumps(doc), encoding="utf-8")
    r = run("validate", str(worse))
    assert r.exit_code == 2
    assert "globularity" in r.output


def test_validate_missing_file_exits_2():
    r = run("validate", "/no/such/file.graycat.json")
    assert r.exit_code == 2


def test_pathspace_with_out(tmp_path):
    out = tmp_path / "pathint.graycat.json"
    r = run("pathspace", "INT", "--out", str(out))
    assert r.exit_code == 0
    P = pres.load(str(out))
    assert len(P.cells[1]) == 6


def test_tower_report():
    r = run("--report", "json", "tower", "T1")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["ok"] and "stages" in doc


def test_hom_command():
    r = run("--report", "json", "hom", "INT", "BIG")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["cells"] == [4, 14, 19, 19]


def test_cap_hit_by_transformations_fails_hom():
    """T1 -> CYC2 has one functor and two transformations."""
    r = run("--report", "json", "--cap", "1", "hom", "T1", "CYC2")
    assert r.exit_code == 1
    r = run("--report", "json", "--cap", "2", "hom", "T1", "CYC2")
    assert r.exit_code == 0
    assert json.loads(r.output)["cells"] == [1, 2, 2, 2]


def test_cap_bounds_functor_count():
    r = run("--report", "json", "--cap", "1", "hom", "INT", "BIG")
    assert r.exit_code == 1
    assert json.loads(r.output)["cells"][0] == 1


def test_faults_command():
    r = run("--seed", "3", "faults", "BIG", "--count", "5")
    assert r.exit_code == 0
    assert "detected" in r.output


def test_faults_without_a_corruption_exits_2():
    """Every table of T1 lands in a one-cell dimension: nothing to swap."""
    r = run("faults", "T1", "--count", "3")
    assert r.exit_code == 2, r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert r.output.count("error:") == 1 and "Traceback" not in r.output


def test_failure_exit_code_1(tmp_path):
    from graypath.faults import corrupt_graycat
    bad, _ = corrupt_graycat(fixture("PAIR"), seed=11)
    # bypass the loader's validation by writing the raw document
    doc = pres.to_document(bad)
    path = tmp_path / "bad.graycat.json"
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    r = run("check", "gray", str(path))
    assert r.exit_code in (1, 2)


def test_unknown_flag_rejected():
    r = run("--bogus")
    assert r.exit_code != 0


@pytest.mark.parametrize("argv", [
    ["validate", "{}"], ["check", "gray", "{}"], ["check", "m", "{}"],
    ["check", "comonad", "{}"], ["pathspace", "{}"], ["tower", "{}"],
    ["hom", "INT", "{}"], ["hom", "{}", "INT"],
], ids=["validate", "check-gray", "check-m", "check-comonad", "pathspace",
        "tower", "hom-codomain", "hom-domain"])
def test_missing_input_exits_2(tmp_path, argv):
    missing = str(tmp_path / "missing.graycat.json")
    r = run(*[missing if a == "{}" else a for a in argv])
    assert r.exit_code == 2, r.output
    assert "error:" in r.output and "missing.graycat.json" in r.output


def _malformed_exits_2(tmp_path, doc=None, raw=None):
    path = tmp_path / "malformed.graycat.json"
    if raw is None:
        path.write_text(json.dumps(doc), encoding="utf-8")
    else:
        path.write_bytes(raw)
    for argv in (["validate", str(path)], ["check", "gray", str(path)]):
        r = run(*argv)
        assert r.exit_code == 2, (argv, r.output, r.exception)
        assert "error:" in r.output


def test_top_level_array_exits_2(tmp_path):
    _malformed_exits_2(tmp_path, [pres.to_document(fixture("T1"))])


def test_two_entry_table_triple_exits_2(tmp_path):
    doc = pres.to_document(fixture("BIG"))
    doc["tables"]["comp0"][0] = doc["tables"]["comp0"][0][:2]
    _malformed_exits_2(tmp_path, doc)


def test_dict_cell_id_exits_2(tmp_path):
    doc = pres.to_document(fixture("BIG"))
    doc["objects"][0]["id"] = {"x": 1}
    _malformed_exits_2(tmp_path, doc)


def test_non_utf8_file_exits_2(tmp_path):
    _malformed_exits_2(tmp_path, raw=b"\xff\xfe{}")


def test_gray_report_ignores_threads_variable():
    argv = ["--report", "json", "check", "gray", "BIG"]
    plain = CliRunner().invoke(main, argv, env={"GRAYPATH_THREADS": None})
    threaded = CliRunner().invoke(main, argv, env={"GRAYPATH_THREADS": "2"})
    assert plain.exit_code == threaded.exit_code == 0
    assert plain.stdout == threaded.stdout


def test_undeclared_source_of_a_2cell_exits_2(tmp_path):
    doc = pres.to_document(fixture("BIG"))
    for e in doc["two_cells"]:
        if e["id"] == "alpha":
            e["src"] = "ghost"
    path = tmp_path / "ghost.graycat.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    r = run("validate", str(path))
    assert r.exit_code == 2, r.output
    assert "2-cell 'alpha': src 'ghost' not a declared 1-cell" in r.output


@functools.lru_cache(maxsize=None)
def _document_text(name):
    from graypath.pathspace import build_pathspace
    C = fixture(name) if name == "BIG" else build_pathspace(fixture("PAIR"))
    return pres.dumps(C)


_CELLS = ("objects", "morphisms", "two_cells", "three_cells")


@st.composite
def _mutated_document(draw):
    """BIG's or path(PAIR)'s document with one field changed: a face or id
    set to an undeclared string, or one table entry dropped or doubled."""
    doc = json.loads(_document_text(draw(st.sampled_from(["BIG", "path(PAIR)"]))))
    kind = draw(st.sampled_from(["cell", "identity", "entry", "drop", "double"]))
    ghost = draw(st.sampled_from(["ghost", "", "id[ghost]"]))
    if kind == "cell":
        entries = doc[draw(st.sampled_from(_CELLS))]
        e = entries[draw(st.integers(0, len(entries) - 1))]
        e[draw(st.sampled_from(sorted(e)))] = ghost
        return doc
    if kind == "identity":
        rows = doc["identities"][draw(st.sampled_from(["0", "1", "2"]))]
    else:
        rows = doc["tables"][draw(st.sampled_from(
            sorted(t for t, rows in doc["tables"].items() if rows)))]
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "drop":
        del rows[i]
    elif kind == "double":
        rows.insert(i, list(rows[i]))
    else:
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = ghost
    return doc


@given(_mutated_document())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_mutated_documents_exit_0_1_or_2(doc):
    """A one-field mutation ends with exit 0, 1 or 2, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.graycat.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["validate", path], ["check", "gray", path]):
            r = run(*argv)
            assert r.exit_code in (0, 1, 2), (argv, r.output)
            assert r.exception is None or isinstance(r.exception, SystemExit), \
                (argv, repr(r.exception))
            assert "Traceback" not in r.output
