"""The CLI's exit code, stdout and stderr on the fixture commands, pinned.

tests/golden/cli.json holds what each command printed as a fresh process
(written by tools/make_golden.py); each is run here in process, from the
repository root, and must give the same bytes.  The two generators are
checked without writing: tools/make_fixtures.py must render every committed
fixture byte for byte, and tools/make_golden.py must list the pinned cases.
"""

import io
import json

import pytest

from hbcalc.cli import _dump_json, main

from support import FIXTURES, REPO, tool

GOLDEN = json.loads((REPO / "tests" / "golden" / "cli.json").read_text())


def test_golden_covers_every_command():
    commands = {case["argv"][0] for case in GOLDEN}
    assert commands == {"index", "validate", "check", "enumerate", "spectrum", "surgery"}
    assert {case["code"] for case in GOLDEN} == {0, 1, 2}


def test_make_golden_lists_the_pinned_cases():
    assert tool("make_golden").cases() == [case["argv"] for case in GOLDEN]


def test_make_fixtures_regenerates_every_fixture():
    payloads = tool("make_fixtures").payloads()
    assert sorted(payloads) == sorted(p.name for p in FIXTURES.glob("*.json"))
    for name, payload in payloads.items():
        rendered = io.StringIO()
        _dump_json(payload, rendered)
        assert rendered.getvalue() == (FIXTURES / name).read_text(encoding="utf-8"), name


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_output_is_pinned(case, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])
