"""Byte-identity gate for the CLI's --json reports.

`cli_golden.json` holds the exit code and the sha256 of the --json stdout of
every fixture through each subcommand that takes it, of every command line in
README.md, and of one missing-file error.  Each argv runs from the repository
root with relative paths, as when it was recorded.  The fixture rows are
complete: `test_every_fixture_has_a_golden_row_per_subcommand` fails when a
fixture lacks a row for a subcommand that takes it.

`GW_GOLDEN` pins the generalized Witt setups, which no fixture covers: the
sha256 of `json.dumps(formats.setup_to_dict(s))` for the truncated algebra
with its scaling derivations, and the exit code and sha256 of the --json
stdout of the command lines of `GW_ARGS` on the saved file (`nijenhuis
--grid=0,1` on [2,2] only, `cohomology --max-degree 3` on [3,2] only).
"""

import hashlib
import json
from pathlib import Path

import pytest

from crosshom import cli, formats
from conftest import generalized_witt_bounds

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "cli_golden.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_json_stdout_is_byte_identical(entry, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(list(entry["argv"]))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == (entry["code"], entry["sha256"])


# The suffix map of `test_cli.test_all_fixtures_mathematically_valid`, with
# a setup file taken by every subcommand that reads one.
FIXTURE_SUBCOMMANDS = {
    ".alg.json": ("check-lie",),
    ".setup.json": (
        "check-action",
        "check-crossed-hom",
        "cohomology",
        "mc-residual",
        "nijenhuis",
        "deform",
        "solve-grid",
    ),
    ".lr.json": ("check-rinehart",),
    ".pair.json": ("check-leibniz",),
}


def test_every_fixture_has_a_golden_row_per_subcommand():
    covered = {(e["argv"][0], a) for e in GOLDEN for a in e["argv"][1:]}
    missing = [
        (command, f"fixtures/{path.name}")
        for path in sorted((ROOT / "fixtures").iterdir())
        for suffix, commands in FIXTURE_SUBCOMMANDS.items()
        if path.name.endswith(suffix)
        for command in commands
        if (command, f"fixtures/{path.name}") not in covered
    ]
    assert missing == []


CHECK = "1c3a4dc183a0e23746defe6f1f18c26c1fd78e9196386073b18834c9a889c91a"
GW_GOLDEN = {
    (4,): {
        "setup": "a4690dbcb428479c75b1f54a5bf3ed6210b6838c5c4200c0369a016a13d78d1f",
        "check-crossed-hom": (0, CHECK),
        "cohomology": (0, "ffc18e72ae0b68fa4ae4fc1ff7026fd489dd58c4f52839976625742627c9227d"),
    },
    (5,): {
        "setup": "e7847dc36b2ea7cef75eae07f91626f06d6801f18a7a212df2143d17b9d23700",
        "check-crossed-hom": (0, CHECK),
        "cohomology": (0, "224d1fc3087cfe4a7d6fd8bc4c44db2c52f2c3902267d24e40db945fc15eecc1"),
    },
    (2, 2): {
        "setup": "b02cca8c2ab707f684705d465db7161464f93ae629e05d8ba003a09a0e7d1124",
        "check-crossed-hom": (0, CHECK),
        "cohomology": (0, "00cf9a23e8d49f301fd43aee578708a714451c2d2345032b1e64fbdebb845ce2"),
        "nijenhuis": (0, "b56f93d7eae3368dc975aae8682552372ba1860cb14d5d18ffb10a2dc2374780"),
    },
    (3, 2): {
        "setup": "1505e8432877d1f712f567bf30e3bb36335a6b6fe333bfccfc619e55e2b1e6a9",
        "check-crossed-hom": (0, CHECK),
        "cohomology": (0, "5a23e9b0b322c429a3e78df11eb570cd349c3ef24db8353e0d4787d29676c2ad"),
        "cohomology --max-degree 3": (0, "95f7c082f330ac8a923660669cd4d5c4af7e4d141badb3cfcbc42758fe9b98c9"),
    },
    (2, 2, 2): {"setup": "aa57564648fe97c35cfc2e5dea8b3893d22ac332d574d39206a0707dbe9ac456"},
}
GW_ARGS = {
    "check-crossed-hom": ["check-crossed-hom"],
    "cohomology": ["cohomology", "--max-degree", "1"],
    "cohomology --max-degree 3": ["cohomology", "--max-degree", "3"],
    "nijenhuis": ["nijenhuis", "--grid=0,1"],
}


@pytest.mark.parametrize("bounds", list(GW_GOLDEN), ids=str)
def test_generalized_witt_setup_is_byte_identical(bounds, capsys, tmp_path):
    text = json.dumps(formats.setup_to_dict(generalized_witt_bounds(bounds)))
    golden = GW_GOLDEN[bounds]
    assert hashlib.sha256(text.encode()).hexdigest() == golden["setup"]
    path = tmp_path / "gw.setup.json"
    path.write_text(text)
    for row, (command, *args) in GW_ARGS.items():
        if row in golden:
            code = cli.main([command, str(path), *args, "--json"])
            digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            assert (code, digest) == golden[row]
