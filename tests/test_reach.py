"""Every function under src/hbcalc is reached by the CLI, documented, or held
for a named reason.

The golden corpus (tests/golden/cli.json, the commands test_golden.py pins)
is run in process under ``sys.setprofile``, recording each code object it
enters.  Every ``def`` under src/hbcalc (methods and nested
functions included) must then be entered by some golden command, be named
by its own name in ``hbcalc.__all__`` or in backticks in README (a class
named there does not cover its methods, and a nested function is never
covered), or be on ``ALLOWED`` below with its reason.  An ``ALLOWED`` entry
that no longer exists, or that the corpus now enters, fails too.
"""

import ast
import contextlib
import functools
import io
import json
import os
import pathlib
import re
import sys

import hbcalc
from hbcalc.cli import main

from support import REPO

SRC = pathlib.Path(hbcalc.__file__).parent

#: functions no golden command enters, each with the reason it stays in src/
ALLOWED = {
    # process entries: the corpus calls cli.main in process
    "hbcalc.cli.run": "the process entry of python -m hbcalc.cli and the console script",
    "hbcalc.__getattr__": "the PEP 562 hook that binds hbcalc's spectral names on first "
                          "access; the CLI imports the modules directly",
    # guards that only misuse or a malformed file reaches
    "hbcalc.spectral.FlowLoop.__setattr__": "refuses assignment to an immutable loop",
    "hbcalc.errors.IncompleteInputError.__init__": "raised for a component without "
                                                   "controlling windings; no fixture has one",
    "hbcalc.cli._load_json.reject_constant": "refuses NaN and Infinity in a JSON file "
                                             "(test_loader_messages.py)",
    # second routes and what perfbench calls
    "hbcalc.orbits.Catalog.cz_via_crossing": "aim 3's second CZ route, on the CLI path once "
                                             "ROADMAP item 4 lands; perfbench's "
                                             "cover_spectra calls it",
    "hbcalc.index_calculus.defect": "perfbench's tracer wraps it (degeneration re-exports "
                                    "it) until ROADMAP item 1(d)",
    "hbcalc.buildings.Building.same_as": "perfbench/worker.py calls it",
    # held for open ROADMAP items
    "hbcalc.degeneration.trivial_subbuilding_check": "ROADMAP item 5 (check --theorem trivial)",
    "hbcalc.degeneration.TrivialBoundaryData.__post_init__": "ROADMAP item 5",
    "hbcalc.degeneration.constant_subbuilding_bound": "ROADMAP item 5",
    "hbcalc.buildings.subbuilding": "ROADMAP item 5",
    "hbcalc.buildings.maximal_trivial_subbuildings": "ROADMAP item 5",
    "hbcalc.degeneration.limit_to_building": "ROADMAP item 6 (enumerate and the classifier "
                                             "agree)",
    "hbcalc.degeneration.limit_to_building.side": "ROADMAP item 6",
}


def _definitions() -> dict:
    """{(file name, first line, name): (dotted name, nested)} for every def
    under src/hbcalc, keyed as its code object is (a decorated function's
    code starts at its first decorator)."""
    out = {}

    def walk(node, path, dotted, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first, child.name)] = (f"{dotted}.{child.name}", nested)
                walk(child, path, f"{dotted}.{child.name}", True)
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{dotted}.{child.name}", nested)
            else:
                walk(child, path, dotted, nested)

    for path in sorted(SRC.glob("*.py")):
        module = "hbcalc" if path.stem == "__init__" else f"hbcalc.{path.stem}"
        walk(ast.parse(path.read_text(encoding="utf-8")), path, module, False)
    return out


def _documented() -> set:
    """hbcalc.__all__, and each name that a backticked README span outside the
    code blocks begins with, as the last step of a dotted path: `FlowLoop`,
    `hbcalc.FlowLoop` and `SpectralTable.clip(w)` name FlowLoop, FlowLoop and
    clip."""
    text = re.sub(r"```.*?```", "", (REPO / "README.md").read_text(encoding="utf-8"),
                  flags=re.S)
    paths = re.findall(r"`([A-Za-z_][\w.]*)[^`]*`", text)
    return {path.rsplit(".", 1)[-1] for path in paths} | set(hbcalc.__all__)


@functools.cache
def _entered() -> frozenset:
    """(file name, first line, name) of every code object the golden commands
    enter, each run from the repository root with output captured."""
    golden = json.loads((REPO / "tests" / "golden" / "cli.json").read_text())
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    cwd, previous = os.getcwd(), sys.getprofile()
    os.chdir(REPO)
    try:
        for case in golden:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                sys.setprofile(hook)
                try:
                    code = main(case["argv"])
                finally:
                    sys.setprofile(previous)
            assert code == case["code"], case["argv"]
    finally:
        os.chdir(cwd)
    return frozenset(seen)


def test_every_src_function_is_reached_documented_or_allowed():
    entered, documented = _entered(), _documented()
    unreached = sorted(
        dotted
        for key, (dotted, nested) in _definitions().items()
        if key not in entered
        and (nested or key[2] not in documented)
        and dotted not in ALLOWED
    )
    assert unreached == [], (
        "no CLI path, __all__ or README reaches these functions: move them out of "
        "src/hbcalc or give each an ALLOWED reason"
    )


def test_allowed_entries_exist_and_are_unreached():
    definitions = _definitions()
    entered = {definitions[key][0] for key in _entered() if key in definitions}
    defined = {dotted for dotted, _ in definitions.values()}
    assert sorted(set(ALLOWED) - defined) == [], "ALLOWED names a function src/ lacks"
    assert sorted(set(ALLOWED) & entered) == [], "the golden corpus enters these now"
