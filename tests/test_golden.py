"""The CLI's exit code, stdout and stderr on the fixture commands, pinned.

tests/golden/cli.json holds what each command printed as a fresh process
(written by tools/make_golden.py); each is run here in process, from the
repository root, and must give the same bytes.
"""

import json

import pytest

from hbcalc.cli import main

from support import REPO

GOLDEN = json.loads((REPO / "tests" / "golden" / "cli.json").read_text())


def test_golden_covers_every_command():
    commands = {case["argv"][0] for case in GOLDEN}
    assert commands == {"index", "validate", "check", "enumerate", "spectrum", "surgery"}
    assert {case["code"] for case in GOLDEN} == {0, 1, 2}


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_output_is_pinned(case, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])
