"""Byte-identity gate for the CLI's --json reports.

`cli_golden.json` holds the exit code and the sha256 of the --json stdout of
every fixture through each subcommand that takes it, of every command line in
README.md, and of one missing-file error.  Each argv runs from the repository
root with relative paths, as when it was recorded.
"""

import hashlib
import json
from pathlib import Path

import pytest

from crosshom import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "cli_golden.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_json_stdout_is_byte_identical(entry, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(list(entry["argv"]))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == (entry["code"], entry["sha256"])
