"""Golden loader messages: malformed catalog, building and asymptotics files,
each with the exact exit code and stderr of the command that loads it.

Each case is one edit of a shipped fixture: the value at a key path replaced
(``DROP`` deletes the key, an empty path replaces the whole document, a str
``TEXT`` value is written as the raw file).  ``{bad}`` in an expected message
stands for the path of the edited file.  A null in an optional field either
means "absent" (the command then runs as on the fixture) or is a kind error,
field by field; these cases pin which.
"""

import json
import re

import pytest

from hbcalc.cli import main

from support import FIXTURES, loader_argv

DROP = object()


class TEXT(str):
    """A file body written as is, not as JSON."""


def document(fixture: str, keys: tuple, value) -> str:
    """The fixture with the value at `keys` replaced by `value` (or dropped)."""
    if isinstance(value, TEXT):
        return value
    doc = json.loads((FIXTURES / fixture).read_text())
    if not keys:
        return json.dumps(value)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    if value is DROP:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return json.dumps(doc)


CAT, TAB = "catalog_demo.json", "catalog_table.json"
FIG3, ASY = "building_figure3.json", "asymptotics_demo.json"
ORBIT = ("orbits", 0)
COVER = ("orbits", 0, "model", "covers", "1")
MAIN_BOT = ("components", 2)  # nontrivial, with image_class and windings
END = MAIN_BOT + ("punctures", 0)
NAN = float("nan")
CAT_ORBITS = json.loads((FIXTURES / CAT).read_text())["orbits"]
TAB_ORBITS = json.loads((FIXTURES / TAB).read_text())["orbits"]
TAB_COVER = TAB_ORBITS[0]["model"]["covers"]["1"]
#: cover 1 of the table fixture without its winding-1 class
GAP = [row for row in TAB_COVER if row[1] != 1]
#: a table-mode orbit whose cover 1 is even: winding 0 has one eigenvalue on
#: each side of 0
EVEN_TAB = {"id": "even_tab", "period": 1.0, "model": {"type": "table", "covers": {
    "1": [[-5.0, -1, 2], [-1.0, 0, 1], [1.0, 0, 1], [5.0, 1, 2]]}}}
#: nesting depth of the too-deep documents, far past the reader's recursion limit
DEEP = 200_000

#: (case id, fixture, key path, new value, exit code, stderr)
CASES = [
    # catalog files
    ("cat-not-json", CAT, (), TEXT('{"format": 1,'),
     2, "error: {bad}: invalid JSON:"
        " Expecting property name enclosed in double quotes: line 1 column 14 (char 13)\n"),
    ("cat-root-array", CAT, (), [],
     2, "error: {bad}: expected an object\n"),
    ("cat-nested-arrays", CAT, (), TEXT("[" * DEEP + "]" * DEEP),
     2, "error: {bad}: invalid JSON: nested too deeply\n"),
    ("cat-format-twice", CAT, (), TEXT('{"format": 1, "orbits": [], "format": 2}'),
     2, "error: {bad}: duplicate key 'format' in an object\n"),
    ("cat-format-missing", CAT, ("format",), DROP,
     2, "error: {bad}.format: required field missing\n"),
    ("cat-format-string", CAT, ("format",), "1",
     2, "error: {bad}.format: expected an integer\n"),
    ("cat-format-version", CAT, ("format",), 2,
     2, "error: {bad}.format: unsupported version 2\n"),
    ("cat-orbits-missing", CAT, ("orbits",), DROP,
     2, "error: {bad}.orbits: required field missing\n"),
    ("cat-orbit-string", CAT, ORBIT, "rot_p",
     2, "error: {bad}.orbits[0]: expected an object\n"),
    ("cat-id-missing", CAT, ORBIT + ("id",), DROP,
     2, "error: {bad}.orbits[0].id: required field missing\n"),
    ("cat-id-empty", CAT, ORBIT + ("id",), "",
     2, "error: {bad}.orbits[0]: orbit id must be nonempty\n"),
    ("cat-id-integer", CAT, ORBIT + ("id",), 3,
     2, "error: {bad}.orbits[0].id: expected a string\n"),
    ("cat-period-string", CAT, ORBIT + ("period",), "1",
     2, "error: {bad}.orbits[0].period: expected a number\n"),
    ("cat-period-bool", CAT, ORBIT + ("period",), True,
     2, "error: {bad}.orbits[0].period: expected a number\n"),
    ("cat-period-negative", CAT, ORBIT + ("period",), -1.0,
     2, "error: {bad}.orbits[0].period: period must be positive, got -1.0\n"),
    ("cat-period-zero", CAT, ORBIT + ("period",), 0,
     2, "error: {bad}.orbits[0].period: period must be positive, got 0.0\n"),
    ("cat-model-type-unknown", CAT, ORBIT + ("model", "type"), "spline",
     2, "error: {bad}.orbits[0].model.type: unknown model type 'spline'\n"),
    ("cat-samples-missing", CAT, ORBIT + ("model", "samples"), DROP,
     2, "error: {bad}.orbits[0].model.samples: required field missing\n"),
    ("cat-sample-row-short", CAT, ORBIT + ("model", "samples", 2), [0.0, 0.0],
     2, "error: {bad}.orbits[0].model.samples[2]: expected [s11, s12, s22]\n"),
    ("cat-sample-string", CAT, ORBIT + ("model", "samples", 1, 2), "0",
     2, "error: {bad}.orbits[0].model.samples[1][2]: expected a number\n"),
    ("cat-sample-nan", CAT, ORBIT + ("model", "samples", 0, 0), NAN,
     2, "error: {bad}: non-finite number NaN is not allowed\n"),
    ("cat-samples-too-few", CAT, ORBIT + ("model", "samples"), [[0, 0, 0]],
     2, "error: {bad}.orbits[0].model.samples: sample count must be odd and >= 3, got 1\n"),
    ("cat-hyperbolic-null", CAT, ORBIT + ("hyperbolic",), None,
     0, ""),
    ("cat-hyperbolic-string", CAT, ORBIT + ("hyperbolic",), "yes",
     2, "error: {bad}.orbits[0].hyperbolic: expected a boolean\n"),
    ("tab-covers-array", TAB, COVER[:-1], [],
     2, "error: {bad}.orbits[0].model.covers: expected an object\n"),
    ("tab-cover-key", TAB, COVER[:-1] + ("x",), [],
     2, "error: {bad}.orbits[0].model.covers['x']: cover keys must be integers\n"),
    ("tab-cover-rows-object", TAB, COVER, {},
     2, "error: {bad}.orbits[0].model.covers['1']: expected an array\n"),
    ("tab-row-short", TAB, COVER + (0,), [1.0, 0],
     2, "error: {bad}.orbits[0].model.covers['1'][0]:"
        " expected [eigenvalue, winding, multiplicity]\n"),
    ("tab-row-winding-float", TAB, COVER + (0, 1), 1.5,
     2, "error: {bad}.orbits[0].model.covers['1'][0][1]: expected an integer\n"),
    ("tab-row-eigenvalue-null", TAB, COVER + (0, 0), None,
     2, "error: {bad}.orbits[0].model.covers['1'][0][0]: expected a number\n"),
    ("tab-period-negative", TAB, ORBIT + ("period",), -1.0,
     2, "error: {bad}.orbits[0].period: period must be positive, got -1.0\n"),
    ("tab-period-zero", TAB, ORBIT + ("period",), 0.0,
     2, "error: {bad}.orbits[0].period: period must be positive, got 0.0\n"),
    ("tab-hyperbolic-null", TAB, ORBIT + ("hyperbolic",), None,
     0, ""),
    ("tab-winding-gap", TAB, COVER, GAP,
     2, "error: {bad}.orbits[0].model.covers['1']: no eigenvalue has winding 1"
        " between windings -2 and 2; the kept windings must be one run\n"),
    ("tab-winding-decreasing", TAB, COVER,
     [[lam, -w, mult] for lam, w, mult in TAB_COVER],
     2, "error: {bad}.orbits[0].model.covers['1']: winding not nondecreasing in the"
        " eigenvalue\n"),
    ("tab-multiplicity-zero", TAB, COVER + (0, 2), 0,
     2, "error: {bad}.orbits[0].model.covers['1']: nonpositive multiplicity\n"),
    # the audit of the whole catalog
    ("tab-even-unflagged", TAB, ("orbits",), TAB_ORBITS + [EVEN_TAB],
     2, "error: {bad}: orbit 'even_tab' is table-mode without a 'hyperbolic' flag\n"),
    ("tab-even-elliptic", TAB, ("orbits",), TAB_ORBITS + [dict(EVEN_TAB, hyperbolic=False)],
     2, "error: {bad}: orbit 'even_tab' is even but not hyperbolic;"
        " even orbits are always hyperbolic\n"),
    ("tab-even-hyperbolic", TAB, ("orbits",), TAB_ORBITS + [dict(EVEN_TAB, hyperbolic=True)],
     0, ""),
    ("cat-orbit-twice", CAT, ("orbits",), CAT_ORBITS + CAT_ORBITS[:1],
     2, "error: {bad}: duplicate orbit id 'hyp_even'\n"),
    # building files
    ("fig3-root-string", FIG3, (), "building",
     2, "error: {bad}: expected an object\n"),
    ("fig3-nested-objects", FIG3, (), TEXT('{"components": ' * DEEP + "[]" + "}" * DEEP),
     2, "error: {bad}: invalid JSON: nested too deeply\n"),
    ("fig3-genus-twice", FIG3, (), TEXT(
        (FIXTURES / FIG3).read_text().replace('"genus": 0', '"genus": 0, "genus": 5', 1)),
     2, "error: {bad}: duplicate key 'genus' in an object\n"),
    ("fig3-components-missing", FIG3, ("components",), DROP,
     2, "error: {bad}.components: required field missing\n"),
    ("fig3-id-missing", FIG3, MAIN_BOT + ("id",), DROP,
     2, "error: {bad}.components[2].id: required field missing\n"),
    ("fig3-id-empty", FIG3, MAIN_BOT + ("id",), "",
     2, "error: {bad}.components[2]: component id must be nonempty\n"),
    ("fig3-genus-string", FIG3, MAIN_BOT + ("genus",), "0",
     2, "error: {bad}.components[2].genus: expected an integer\n"),
    ("fig3-genus-negative", FIG3, MAIN_BOT + ("genus",), -1,
     2, "error: {bad}.components[2]: component 'main_bot': genus must be >= 0\n"),
    ("fig3-genus-5001-digits", FIG3, (), TEXT(
        (FIXTURES / FIG3).read_text().replace('"genus": 0', '"genus": ' + "9" * 5001, 1)),
     2, "error: {bad}: invalid JSON: Exceeds the limit (4300 digits) for integer string"
        " conversion: value has 5001 digits; use sys.set_int_max_str_digits() to increase"
        " the limit\n"),
    ("fig3-rel_c1-null", FIG3, MAIN_BOT + ("rel_c1",), None,
     2, "error: {bad}.components[2].rel_c1: expected an integer\n"),
    ("fig3-kind-null", FIG3, MAIN_BOT + ("kind",), None,
     2, "error: {bad}.components[2].kind: expected a string\n"),
    ("fig3-kind-unknown", FIG3, MAIN_BOT + ("kind",), "ghost",
     2, "error: {bad}.components[2]: component 'main_bot': unknown kind 'ghost'\n"),
    ("fig3-wind_pi-null", FIG3, MAIN_BOT + ("wind_pi",), None,
     0, ""),
    ("fig3-wind_pi-string", FIG3, MAIN_BOT + ("wind_pi",), "0",
     2, "error: {bad}.components[2].wind_pi: expected an integer\n"),
    ("fig3-wind_pi-negative", FIG3, MAIN_BOT + ("wind_pi",), -1,
     2, "error: {bad}.components[2]: component 'main_bot': wind_pi must be >= 0\n"),
    ("fig3-image_class-null", FIG3, MAIN_BOT + ("image_class",), None,
     0, ""),
    ("fig3-image_class-integer", FIG3, MAIN_BOT + ("image_class",), 5,
     2, "error: {bad}.components[2].image_class: expected a string\n"),
    ("fig3-punctures-null", FIG3, MAIN_BOT + ("punctures",), None,
     2, "error: {bad}.components[2].punctures: expected an array\n"),
    ("fig3-sign-star", FIG3, END + ("sign",), "*",
     2, "error: {bad}.components[2].punctures[0].sign: expected '+' or '-'\n"),
    ("fig3-sign-missing", FIG3, END + ("sign",), DROP,
     2, "error: {bad}.components[2].punctures[0].sign: required field missing\n"),
    ("fig3-orbit-array", FIG3, END + ("orbit",), [],
     2, "error: {bad}.components[2].punctures[0].orbit: expected an object\n"),
    ("fig3-k-string", FIG3, END + ("orbit", "k"), "1",
     2, "error: {bad}.components[2].punctures[0].orbit.k: expected an integer\n"),
    ("fig3-simple-missing", FIG3, END + ("orbit", "simple"), DROP,
     2, "error: {bad}.components[2].punctures[0].orbit.simple: required field missing\n"),
    ("fig3-constraint-null", FIG3, END + ("constraint",), None,
     2, "error: {bad}.components[2].punctures[0].constraint: expected a number\n"),
    ("fig3-constraint-string", FIG3, END + ("constraint",), "0",
     2, "error: {bad}.components[2].punctures[0].constraint: expected a number\n"),
    ("fig3-constraint-nan", FIG3, END + ("constraint",), NAN,
     2, "error: {bad}: non-finite number NaN is not allowed\n"),
    ("fig3-winding-null", FIG3, END + ("controlling_winding",), None,
     0, ""),
    ("fig3-winding-float", FIG3, END + ("controlling_winding",), 0.5,
     2, "error: {bad}.components[2].punctures[0].controlling_winding: expected an integer\n"),
    ("fig3-breaking-null", FIG3, ("breaking_pairs",), None,
     2, "error: {bad}.breaking_pairs: expected an array\n"),
    ("fig3-breaking-pair-long", FIG3, ("breaking_pairs", 0), [["cyl_bot", 0]] * 3,
     2, "error: {bad}.breaking_pairs[0]: expected [positive site, negative site]\n"),
    ("fig3-breaking-site-short", FIG3, ("breaking_pairs", 1, 0), ["main_bot"],
     2, "error: {bad}.breaking_pairs[1][0]: expected [component id, puncture index]\n"),
    ("fig3-breaking-site-index-string", FIG3, ("breaking_pairs", 1, 0, 1), "0",
     2, "error: {bad}.breaking_pairs[1][0][1]: expected an integer\n"),
    ("fig3-breaking-site-id-integer", FIG3, ("breaking_pairs", 1, 1, 0), 0,
     2, "error: {bad}.breaking_pairs[1][1][0]: expected a string\n"),
    ("fig3-breaking-distinct-orbits", FIG3, ("components", 2, "punctures", 1, "orbit", "k"), 2,
     2, "error: {bad}: breaking_pairs[0]: breaking pair (('cyl_bot', 0), ('main_bot', 1))"
        " joins distinct orbits rot_m^1 and rot_m^2\n"),
    ("fig3-nodal-null", FIG3, ("nodal_pairs",), None,
     2, "error: {bad}.nodal_pairs: expected an array\n"),
    ("fig3-nodal-pair-short", FIG3, ("nodal_pairs",), [["main_top"]],
     2, "error: {bad}.nodal_pairs[0]: expected [component id, component id]\n"),
    ("fig3-nodal-id-integer", FIG3, ("nodal_pairs",), [["main_top", 1]],
     2, "error: {bad}.nodal_pairs[0][1]: expected a string\n"),
    # asymptotics files
    ("asy-format-missing", ASY, ("format",), DROP,
     2, "error: {bad}.format: required field missing\n"),
    ("asy-punctures-missing", ASY, ("punctures",), DROP,
     2, "error: {bad}.punctures: required field missing\n"),
    ("asy-punctures-object", ASY, ("punctures",), {},
     2, "error: {bad}.punctures: expected an array\n"),
    ("asy-rel_c1-null", ASY, ("rel_c1",), None,
     2, "error: {bad}.rel_c1: expected an integer\n"),
    ("asy-rel_c1-float", ASY, ("rel_c1",), 0.0,
     2, "error: {bad}.rel_c1: expected an integer\n"),
    ("asy-constraint-null", ASY, ("punctures", 1, "constraint"), None,
     2, "error: {bad}.punctures[1].constraint: expected a number\n"),
    ("asy-winding-null", ASY, ("punctures", 0, "controlling_winding"), None,
     0, ""),
    ("asy-orbit-missing", ASY, ("punctures", 0, "orbit"), DROP,
     2, "error: {bad}.punctures[0].orbit: required field missing\n"),
    ("asy-sign-integer", ASY, ("punctures", 0, "sign"), 1,
     2, "error: {bad}.punctures[0].sign: expected a string\n"),
]


@pytest.mark.parametrize("name, fixture, keys, value, code, stderr", CASES,
                         ids=[case[0] for case in CASES])
def test_loader_message(capsys, tmp_path, name, fixture, keys, value, code, stderr):
    bad = tmp_path / "bad.json"
    bad.write_text(document(fixture, keys, value))
    got = main(loader_argv(fixture, str(bad)))
    captured = capsys.readouterr()
    assert (got, captured.err) == (code, stderr.replace("{bad}", str(bad)))
    if code == 2:
        assert captured.out == ""


def test_invalid_utf8_is_invalid_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format": 1, "components": ["\xff"]}')
    got = main(loader_argv(FIG3, str(bad)))
    captured = capsys.readouterr()
    assert (got, captured.out) == (2, "")
    assert captured.err == (f"error: {bad}: invalid JSON: 'utf-8' codec can't decode byte 0xff"
                            " in position 30: invalid start byte\n")


@pytest.mark.parametrize("command, role, fixture, end, orbit", [
    (["index"], "--building", FIG3, "components[0].punctures[0]", "rot_m"),
    (["validate"], "--building", FIG3, "components[2].punctures[0]", "hyp_even"),
    (["check", "--theorem", "stable"], "--building", FIG3, "components[2].punctures[0]",
     "hyp_even"),
    (["enumerate"], "--asymptotics", ASY, "punctures[0]", "rot_p"),
], ids=["index", "validate", "check", "enumerate"])
def test_orbit_missing_from_the_catalog(capsys, command, role, fixture, end, orbit):
    # a building or asymptotics file names an orbit that the catalog lacks
    catalog, named = str(FIXTURES / TAB), str(FIXTURES / fixture)
    got = main(command + ["--catalog", catalog, role, named])
    captured = capsys.readouterr()
    assert (got, captured.out) == (2, "")
    assert captured.err == (f"error: {named}.{end}.orbit: unknown orbit id {orbit!r}"
                            f" (not in catalog {catalog})\n")


#: figure 3 with no controlling winding on main_bot's two ends
NO_WINDINGS = json.loads((FIXTURES / FIG3).read_text())
for _puncture in NO_WINDINGS["components"][2]["punctures"]:
    del _puncture["controlling_winding"]


@pytest.mark.parametrize("command", [["validate"], ["check", "--theorem", "stable"]],
                         ids=["validate", "check"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_missing_controlling_winding_cites_its_field(capsys, tmp_path, command, json_flag):
    # the nice checks need main_bot's defect, hence its controlling windings
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(NO_WINDINGS))
    got = main(command + json_flag + ["--catalog", str(FIXTURES / CAT), "--building", str(bad)])
    captured = capsys.readouterr()
    assert (got, captured.out) == (2, "")
    assert captured.err == (f"error: {bad}.components[2].punctures[0].controlling_winding: "
                            "component 'main_bot' lacks controlling windings at "
                            "[('main_bot', 0), ('main_bot', 1)]\n")


def test_missing_controlling_winding_leaves_index_without_a_defect(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(NO_WINDINGS))
    got = main(loader_argv(FIG3, str(bad)))
    captured = capsys.readouterr()
    assert (got, captured.err) == (0, "")
    assert "component main_bot: index=1 c_N=0 defect=n/a wind_pi=ok\n" in captured.out


#: a flow orbit whose monodromy trace is within 1e-9 of 2, too close to call
#: its type
BORDERLINE = {"id": "x", "period": 1.0,
              "model": {"type": "flow", "samples": [[1e-5, 0.0, -1e-5]] * 33}}


@pytest.mark.parametrize("command", [
    ["spectrum", "--orbit", "x", "--window", "10"],
    ["index", "--building", str(FIXTURES / FIG3)],
    ["validate", "--building", str(FIXTURES / FIG3)],
    ["check", "--theorem", "stable", "--building", str(FIXTURES / FIG3)],
    ["enumerate", "--asymptotics", str(FIXTURES / ASY)],
], ids=["spectrum", "index", "validate", "check", "enumerate"])
def test_borderline_monodromy_trace_is_refused(capsys, tmp_path, command):
    # the load audit asks each flow orbit's type before any command runs
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": 1, "orbits": [BORDERLINE]}))
    got = main(command[:1] + ["--catalog", str(bad)] + command[1:])
    captured = capsys.readouterr()
    assert (got, captured.out) == (2, "")
    assert re.fullmatch(re.escape(f"error: {bad}: orbit 'x' has borderline monodromy trace ")
                        + r"2\.0+\d*\n", captured.err), captured.err
