"""Golden digests: refactors keep every report and document byte-identical.

The sha256 values were taken from the code before pullbacks were tabulated
through path(H)'s tables and before each hom cell was converted only once.
A change that alters one of these outputs on purpose must say so and pin
the new value.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from graypath import presentation
from graypath.cli import main
from graypath.fixtures import fixture
from graypath.homspace import hom_graycat
from graypath.pathcomp import build_pullback
from graypath.pathspace import build_pathspace

REPORTS = {
    ("check", "m", "BIG"):
        "37e264392904e599ca8c31611450996cefce16194109433f72b25d82c33f0f45",
    ("check", "m", "CYC2"):
        "f65be1fe041c81242bf2f9ffc59ca0740856e00cf70a5e0cf356c92ca1b62fff",
    ("tower", "BIG"):
        "5ca078f7dbc12f2c6455d27fd62e8ef6b1a39ec49668be3b60f42a02e76a771c",
    ("tower", "CYC2"):
        "e8500ba8aed089bdc4079822f5192c0eb86a146d16e1432120faf419e8be1f40",
    ("hom", "INT", "BIG"):
        "2434987cd9d2e2f6f51b2b15a93a91c6f5f10e886062afdf4e15daf60c38ac2a",
    ("hom", "INT", "CYC2"):
        "b843d11a7448a83a4a88df1b22ab0757ea6c7ea5b13060800abc58a298ee39c3",
}

# fixture -> digests of path(H), its 2-fold and its 3-fold pullback
DOCUMENTS = {
    "BIG": ("aa5def4467abf1fce3415202c1ee1590cbc3bb942116a5fb2e9cbf702e29460a",
             "497bf51b30cc9b8a081a72e6a219aa8eed633d68473b9d4298ee91adfafc9eb1",
             "15a4d3f711cd23a759077d4e21544751c47e3b76ae3253f8acf75a0c8e77d2e9"),
    "PAIR": ("430fc2c830c3c17979d070e10909d20fe045fd12b9fc1de763e786022aaa6e6b",
             "cb4d999adb871114abd74e72a6f9291c7fdd63f5b352c6b88b6badf4e46265b8",
             "5c6ef4041d4e3798f361c901ec42686722ec1290724f846e8d2af8dc7e0b50f5"),
    "CYC2": ("32c6ffd8d2028076278d6f7ab213d2c79627518ab31862461ec149aea3081727",
             "b8d81d7ea23ba9357130bbd9ad33b1f832deb16922ef87e6f9910a8e222df082",
             "4255944a724fb4ab0801d84aeaacb7b407574810165228f8af4411afb359f66e"),
}

HOM_INT_BIG_TABLES = \
    "565403900fe9daa0ffc14d275cbc4c3069967fe12476f7baa33a32b1b9f2f97b"


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_digest(argv):
    r = CliRunner().invoke(main, ["--report", "json", *argv])
    assert r.exit_code == 0, r.output
    json.loads(r.output)
    return _sha(r.output)


def _document_digests(name):
    H = fixture(name)
    PH = build_pathspace(H)
    return tuple(_sha(presentation.dumps(C)) for C in
                 (PH, build_pullback(PH, H, 2), build_pullback(PH, H, 3)))


def _tables_digest(C):
    """The public attributes of C, dict entries sorted by repr; the private
    ones are skipped because _cellset is a set whose order varies."""
    tables = []
    for attr in sorted(vars(C)):
        if attr.startswith("_"):
            continue
        value = getattr(C, attr)
        if isinstance(value, dict):
            value = sorted(value.items(), key=repr)
        tables.append((attr, value))
    return _sha(repr(tables))


@pytest.mark.parametrize("argv", sorted(REPORTS), ids=" ".join)
def test_json_report_digest(argv):
    assert _report_digest(argv) == REPORTS[argv]


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_pathspace_and_pullback_document_digests(name):
    assert _document_digests(name) == DOCUMENTS[name]


def test_hom_table_digest():
    C, _, _ = hom_graycat(fixture("INT"), fixture("BIG"))
    assert _tables_digest(C) == HOM_INT_BIG_TABLES
