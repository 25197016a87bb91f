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
from graypath.kernel import TABLES

from mutations import CELLS, document_text, mutated_json, with_cell_text


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


@pytest.mark.parametrize("count", ["-3", "0"])
def test_faults_count_below_one_exits_2(count):
    r = run("faults", "INT", "--count", count)
    assert r.exit_code == 2, r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "PASS" not in r.output and "detected" not in r.output
    assert r.output.count("Error:") == 1 and "Traceback" not in r.output


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


@pytest.mark.parametrize("argv", [
    ["fixtures", "dump", "BIG", "{}"], ["pathspace", "INT", "--out", "{}"],
], ids=["fixtures-dump", "pathspace-out"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exits_2(tmp_path, argv, where):
    out = str(tmp_path / "missing" / "x.json" if where == "missing-directory"
              else tmp_path)
    r = run(*[out if a == "{}" else a for a in argv])
    assert r.exit_code == 2, r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)
    lines = r.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in r.output


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


_OPERAND_DIMS = {name: (dl, dr) for name, _, _, dl, dr, _ in TABLES}


@st.composite
def _mutated_document(draw):
    """BIG's or path(PAIR)'s document with one field changed: a face or id
    set to an undeclared string, one table entry dropped or doubled, or one
    operand of a table row set to another declared cell of its dimension."""
    doc = json.loads(document_text(draw(st.sampled_from(["BIG", "path(PAIR)"]))))
    kind = draw(st.sampled_from(["cell", "identity", "entry", "drop", "double",
                                 "rekey"]))
    ghost = draw(st.sampled_from(["ghost", "", "id[ghost]"]))
    if kind == "cell":
        entries = doc[draw(st.sampled_from(CELLS))]
        e = entries[draw(st.integers(0, len(entries) - 1))]
        e[draw(st.sampled_from(sorted(e)))] = ghost
        return doc
    if kind == "identity":
        rows = doc["identities"][draw(st.sampled_from(["0", "1", "2"]))]
    else:
        table = draw(st.sampled_from(
            sorted(t for t, rows in doc["tables"].items() if rows)))
        rows = doc["tables"][table]
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "rekey":
        j = draw(st.integers(0, 1))
        cells = doc[CELLS[_OPERAND_DIMS[table][j]]]
        rows[i][j] = draw(st.sampled_from(
            [e["id"] for e in cells if e["id"] != rows[i][j]]))
        return doc
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


# one pair of declared BIG cells per table that its operation cannot compose
_NOT_COMPOSABLE = [
    ("comp0", "f", "f"), ("whisk_l12", "f", "alpha"),
    ("whisk_r12", "alpha", "f"), ("whisk_l13", "f", "id[alpha]"),
    ("whisk_r13", "id[alpha]", "f"), ("comp1", "alpha", "alpha"),
    ("whisk_l23", "alpha", "id[alpha]"), ("whisk_r23", "id[alpha]", "alpha"),
    ("comp2", "id[alpha]", "id[id[f]]"), ("tensor", "alpha", "alpha"),
]


@pytest.mark.parametrize("table, left, right", _NOT_COMPOSABLE)
def test_non_composable_table_row_exits_2(tmp_path, table, left, right):
    """BIG's document with one table row re-keyed onto operands that do not
    compose is bad input for every loading command."""
    doc = pres.to_document(fixture("BIG"))
    doc["tables"][table][0][:2] = [left, right]
    path = tmp_path / "rekeyed.graycat.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = f"error: {table}[{left!r},{right!r}]: operands not composable"
    for argv in (["validate", str(path)], ["check", "gray", str(path)]):
        r = run(*argv)
        assert r.exit_code == 2, (argv, r.output)
        assert message in r.output, (argv, r.output)
        assert r.output.count("error:") == 1, (argv, r.output)


def _ghost_generator(doc):
    doc["flags"]["generators"].append("ghost")


def _ghost_inverse(doc):
    doc["inverses"]["1"] = [[c, "ghost" if c == "s" else i]
                            for c, i in doc["inverses"]["1"]]


def _ghost_identity(doc):
    doc["identities"]["0"].append(["ghost", "idx"])


def _string_generators(doc):
    doc["flags"]["generators"] = "c01"


@pytest.mark.parametrize("name, mutate, command, message", [
    ("CHAIN3", _ghost_generator, "comonad",
     "generator 'ghost' not a declared 1-cell"),
    ("CYC2", _ghost_inverse, "gray",
     "inv1['s']: inverse 'ghost' not a declared 1-cell"),
    ("CHAIN3", _string_generators, "comonad",
     "generators is a list of 1-cells, not str"),
    ("BIG", _ghost_identity, "gray",
     "identities[0]['ghost']: key not a declared 0-cell"),
], ids=["generator", "inverse", "string-generators", "identity"])
def test_undeclared_generator_or_inverse_exits_2(tmp_path, name, mutate,
                                                command, message):
    doc = pres.to_document(fixture(name))
    mutate(doc)
    path = tmp_path / "ghost.graycat.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", str(path)], ["check", command, str(path)]):
        r = run(*argv)
        assert r.exit_code == 2, (argv, r.output)
        assert f"error: {message}" in r.output, (argv, r.output)
        assert r.output.count("error:") == 1, (argv, r.output)


@pytest.mark.parametrize("table", [name for name, *_ in TABLES])
def test_missing_table_row_exits_2(tmp_path, table):
    """BIG's document without the first row of one table is bad input for
    every loading command, located at the composable pair it lacks."""
    doc = pres.to_document(fixture("BIG"))
    left, right, _ = doc["tables"][table].pop(0)
    path = tmp_path / "missing.graycat.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = (f"error: {table} missing entry for composable pair "
               f"({left!r},{right!r})")
    for argv in (["validate", str(path)], ["check", "gray", str(path)]):
        r = run(*argv)
        assert r.exit_code == 2, (argv, r.output)
        assert message in r.output, (argv, r.output)
        assert r.output.count("error:") == 1, (argv, r.output)


def _dsl_text(C):
    """C's document written as DSL declarations, one per line."""
    doc = pres.to_document(C)
    lines = [f"name {doc['name']}"]
    lines += [f"object {e['id']}" for e in doc["objects"]]
    for d, (field, arrow) in enumerate([("morphisms", "->"),
                                        ("two_cells", "=>"),
                                        ("three_cells", "=>>")], start=1):
        lines += [f"{d}cell {e['id']} : {e['src']} {arrow} {e['tgt']}"
                  for e in doc[field]]
    for rows in doc["identities"].values():
        lines += [f"id {c} = {i}" for c, i in rows]
    for table, rows in doc["tables"].items():
        lines += [f"{table} {l} {r} = {v}" for l, r, v in rows]
    if doc["flags"]["is_groupoid"]:
        lines.append("groupoid")
    if "generators" in doc["flags"]:
        lines.append(" ".join(["generators", *doc["flags"]["generators"]]))
    for d, rows in doc.get("inverses", {}).items():
        lines += [f"inv{d} {c} = {i}" for c, i in rows]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _dsl_lines(name):
    return tuple(_dsl_text(fixture(name)).splitlines())


def test_dsl_text_loads_as_its_fixture(tmp_path):
    for name in ("BIG", "CYC2"):
        path = tmp_path / f"{name}.gc"
        path.write_text("\n".join(_dsl_lines(name)), encoding="utf-8")
        assert pres.dumps(pres.load(str(path))) == pres.dumps(fixture(name))


@st.composite
def _mutated_dsl(draw):
    """BIG's or CYC2's DSL text with one edit: a line dropped, doubled or
    swapped with another, two tokens of a line swapped, or the text cut
    short."""
    lines = list(_dsl_lines(draw(st.sampled_from(["BIG", "CYC2"]))))
    kind = draw(st.sampled_from(["drop", "double", "swap-lines",
                                 "swap-tokens", "truncate"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "double":
        lines.insert(i, lines[i])
    elif kind == "swap-lines":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "swap-tokens":
        tokens = lines[i].split()
        if len(tokens) > 1:
            j, k = draw(st.lists(st.integers(0, len(tokens) - 1), min_size=2,
                                 max_size=2, unique=True))
            tokens[j], tokens[k] = tokens[k], tokens[j]
        lines[i] = " ".join(tokens)
    text = "\n".join(lines)
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    return text


@given(_mutated_dsl())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mutated_dsl_texts_exit_0_1_or_2(text):
    """A one-edit mutation of a *.gc text ends with exit 0, 1 or 2, never a
    traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.gc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["validate", path], ["check", "gray", path]):
            r = run(*argv)
            assert r.exit_code in (0, 1, 2), (argv, r.output)
            assert r.exception is None or isinstance(r.exception, SystemExit), \
                (argv, repr(r.exception))
            assert "Traceback" not in r.output


@given(mutated_json())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_mutated_json_texts_exit_0_1_or_2(text):
    """A one-edit mutation of a saved *.graycat.json text ends with exit 0,
    1 or 2, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.graycat.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["validate", path], ["check", "gray", path]):
            r = run(*argv)
            assert r.exit_code in (0, 1, 2), (argv, r.output)
            assert r.exception is None or isinstance(r.exception, SystemExit), \
                (argv, repr(r.exception))
            assert "Traceback" not in r.output


def test_deeply_nested_json_exits_2(tmp_path):
    """Nesting deeper than the recursion limit is bad input: one error line
    and exit 2, whether the text or a cell of a valid-format document is
    nested."""
    doc = pres.to_document(fixture("T1"))
    texts = {"brackets": "[" * 100_000 + "]" * 100_000,
             "object-id": with_cell_text(doc, (doc["objects"][0], "id"),
                                          "[" * 990 + '"*"' + "]" * 990)}
    for name, text in texts.items():
        path = tmp_path / f"{name}.graycat.json"
        path.write_text(text, encoding="utf-8")
        r = run("validate", str(path))
        assert r.exit_code == 2, (name, r.output)
        assert r.exception is None or isinstance(r.exception, SystemExit), \
            (name, repr(r.exception))
        lines = r.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (name, lines)


# the commands that build on a loaded input, with FILE for the input
_CONSTRUCTIONS = [["check", "m", "FILE"], ["pathspace", "FILE"],
                  ["tower", "FILE"], ["hom", "INT", "FILE"]]


@pytest.mark.parametrize("name", ["BIG", "PAIR", "CYC2"])
def test_construction_on_a_non_gray_document_exits_2(tmp_path, name):
    """A document that loads but fails the Gray axioms ends each
    construction with one error line naming it, exit 2, not a traceback."""
    from graypath.faults import corrupt_graycat
    for seed in range(6):
        bad, _ = corrupt_graycat(fixture(name), seed)
        path = str(tmp_path / f"{name}-{seed}.graycat.json")
        pres.save(bad, path)
        for argv in _CONSTRUCTIONS:
            r = run(*[path if a == "FILE" else a for a in argv])
            assert r.exit_code == 2, (seed, argv, r.output, r.exception)
            assert isinstance(r.exception, SystemExit), (seed, argv)
            line, = r.output.splitlines()
            assert line.startswith(f"error: {path} "), (seed, argv, line)


@pytest.mark.parametrize("argv", _CONSTRUCTIONS, ids=lambda a: a[-2])
def test_construction_error_on_a_gray_input_propagates(monkeypatch, argv):
    """On inputs that pass the Gray axioms a GrayError is the
    construction's own, and the command does not hide it."""
    from graypath import highercells, homspace, pathcomp, pathspace
    from graypath.kernel import GrayError

    def broken(*args, **kwargs):
        raise GrayError("construction bug")
    for module, attr in ((pathcomp, "verify_internal_category"),
                         (pathspace, "build_pathspace"),
                         (highercells, "Tower"), (homspace, "hom_graycat")):
        monkeypatch.setattr(module, attr, broken)
    r = run(*["BIG" if a == "FILE" else a for a in argv])
    assert isinstance(r.exception, GrayError), (r.output, r.exception)
    assert str(r.exception) == "construction bug"
