import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from hbcalc import cli
from hbcalc import index_calculus as ic
from hbcalc.cli import (
    building_from_data,
    building_to_data,
    catalog_from_data,
    main,
)
from hbcalc.errors import CatalogError, InputError, InternalCheckError
from hbcalc.orbits import OrbitRef
from hbcalc.degeneration import MAX_LIMITS, MAX_PARTIAL_SUMS

from support import FIXTURES, REPO, analytic_rotation_table, catalog_to_data

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json"))
CATALOGS = [n for n in ALL_FIXTURES if n.startswith("catalog")]
BUILDINGS = [n for n in ALL_FIXTURES if n.startswith("building")]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRoundTrip:
    @pytest.mark.parametrize("name", CATALOGS)
    def test_catalog_emit_load_identity(self, name):
        raw = json.loads((FIXTURES / name).read_text())
        catalog = catalog_from_data(raw, path=name)
        emitted = catalog_to_data(catalog)
        again = catalog_from_data(emitted, path=name)
        assert catalog_to_data(again) == emitted
        assert emitted == raw  # shipped fixtures are canonical emissions

    @pytest.mark.parametrize("name", BUILDINGS)
    def test_building_emit_load_identity(self, name):
        raw = json.loads((FIXTURES / name).read_text())
        building = building_from_data(raw, path=name)
        emitted = building_to_data(building)
        assert building_from_data(emitted, path=name).same_as(building)
        assert emitted == raw


class TestDeterminism:
    def test_index_json_is_byte_stable(self, capsys):
        argv = (
            "index",
            "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--building", str(FIXTURES / "building_figure3.json"),
            "--json",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_enumerate_json_is_byte_stable(self, capsys):
        argv = (
            "enumerate",
            "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--asymptotics", str(FIXTURES / "asymptotics_demo.json"),
            "--json",
        )
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert [lt["top"] for lt in payload["limits"]] == [[0], [1]]

    def test_spectrum_json_is_byte_stable(self, capsys):
        argv = (
            "spectrum",
            "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--orbit", "rot_p",
            "--window", "10",
            "--grid", "41",
            "--json",
        )
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_spectrum_json_independent_of_blas_threads(self):
        # eigenvalue literals are rounded to 12 significant digits, so the
        # last-digit noise of a threaded eigensolver never reaches stdout
        # (unrounded, 14 of these 14 literals differed between 1 and 2 threads)
        argv = [sys.executable, "-m", "hbcalc.cli", "spectrum", "--catalog",
                str(FIXTURES / "catalog_fixture.json"), "--orbit", "hyp2", "--cover", "3",
                "--window", "40", "--json"]
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        for eigenvalue, _, _ in json.loads(outs[0])["entries"]:
            assert float(f"{eigenvalue:.12g}") == eigenvalue


class TestExitCodes:
    def test_index_ok(self, capsys):
        code, out, _ = run(
            capsys,
            "index",
            "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--building", str(FIXTURES / "building_cylinder.json"),
        )
        assert code == 0
        assert "index     = 0" in out
        assert "c_N       = 0" in out

    def test_check_broken_pair_ok(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--building", str(FIXTURES / "building_figure3.json"),
            "--theorem", "stable",
        )
        assert code == 0
        assert "BROKEN_PAIR" in out
        assert "hyp_even^1" in out

    def test_validate_mutant_fails_with_code(self, capsys):
        code, out, _ = run(
            capsys,
            "validate",
            "--catalog", str(FIXTURES / "catalog_fixture.json"),
            "--building", str(FIXTURES / "building_fig3_oddbreak.json"),
        )
        assert code == 1
        assert "BREAKING_ORBIT_ODD" in out

    def test_schema_violation_cites_path(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "format": 1,
            "components": [{"id": "x", "genus": 0, "punctures": [
                {"sign": "north", "orbit": {"simple": "rot_p", "k": 1}}
            ]}],
        }))
        code, _, err = run(
            capsys,
            "index",
            "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--building", str(bad),
        )
        assert code == 2
        assert "components[0].punctures[0].sign" in err

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys,
            "index",
            "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--building", "/does/not/exist.json",
        )
        assert code == 2
        assert "error:" in err

    def test_unknown_orbit_in_building(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "format": 1,
            "components": [{"id": "x", "genus": 0, "punctures": [
                {"sign": "+", "orbit": {"simple": "ghost", "k": 1}, "constraint": 0.0}
            ]}],
        }))
        code, _, err = run(
            capsys,
            "index",
            "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--building", str(bad),
        )
        assert code == 2
        assert "ghost" in err

    def test_bad_format_version(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": 99, "orbits": []}))
        code, _, err = run(
            capsys,
            "spectrum", "--catalog", str(bad), "--orbit", "x", "--window", "5",
        )
        assert code == 2
        assert "format" in err

    def test_even_grid_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "spectrum",
            "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--orbit", "rot_p",
            "--window", "5",
            "--grid", "200",
        )
        assert code == 2
        assert "odd" in err


class TestGridFlag:
    @pytest.mark.parametrize("grid", ["-1", "0", "1", "2", "2048"])
    def test_bad_grid_names_the_flag_and_value(self, capsys, grid):
        code, out, err = run(capsys, "spectrum", "--catalog", str(FIXTURES / "catalog_demo.json"),
                             "--orbit", "rot_p", "--window", "10", "--grid", grid)
        assert (code, out) == (2, "")
        assert err == f"error: --grid must be odd and >= 3, got {grid}\n"

    def test_grid_on_a_table_mode_orbit_is_rejected(self, capsys):
        # stored tables have no grid; the flag was once ignored and printed grid 0
        code, out, err = run(capsys, "spectrum", "--catalog", str(FIXTURES / "catalog_table.json"),
                             "--orbit", "rot_tab", "--window", "10", "--grid", "101")
        assert (code, out) == (2, "")
        assert err == ("error: --grid: orbit 'rot_tab' is table-mode: its tables are stored, "
                       "not solved on a grid\n")


class TestBuildingErrorPaths:
    """Structural errors of a building file cite the JSON path of the field."""

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["breaking_pairs"][0][0].__setitem__(1, 7),
         "breaking_pairs[0][0]: site ('cyl_bot', 7) is out of range for component 'cyl_bot'"),
        (lambda d: d["breaking_pairs"][2][1].__setitem__(0, "ghost"),
         "breaking_pairs[2][1]: site ('ghost', 1) references unknown component 'ghost'"),
        (lambda d: d["breaking_pairs"].append(d["breaking_pairs"][1]),
         "breaking_pairs[3][0]: puncture ('main_bot', 0) appears in two breaking pairs"),
        (lambda d: d["breaking_pairs"][1].reverse(),
         "breaking_pairs[1]: breaking pair (('main_top', 1), ('main_bot', 0)) must join"),
        (lambda d: d.__setitem__("nodal_pairs", [["main_top", "cyl_top"], ["main_bot", "x"]]),
         "nodal_pairs[1][1]: nodal pair ('main_bot', 'x') references unknown component 'x'"),
        (lambda d: d["components"][3].__setitem__("id", "cyl_bot"),
         "components[3].id: duplicate component id 'cyl_bot'"),
    ])
    def test_message_cites_json_path(self, capsys, tmp_path, edit, message):
        doc = json.loads((FIXTURES / "building_figure3.json").read_text())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "index", "--catalog", str(FIXTURES / "catalog_demo.json"),
                             "--building", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: {message}"), err


class TestPunctureErrorPaths:
    """A constraint or cover that the data model rejects is an input error that
    cites the puncture's JSON path, in building and asymptotics files alike."""

    @pytest.mark.parametrize("keys, value, message", [
        (("constraint",), -1, "constraint must be >= 0, got -1.0"),
        (("orbit", "k"), 0, "covering number must be >= 1, got 0"),
    ])
    @pytest.mark.parametrize("name, puncture", [
        ("building_figure3.json", ("components", 2, "punctures", 0)),
        ("asymptotics_demo.json", ("punctures", 1)),
    ])
    def test_message_cites_puncture_path(self, capsys, tmp_path, name, puncture, keys, value,
                                         message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_with_value(name, puncture + keys, value)))
        catalog = str(FIXTURES / "catalog_demo.json")
        if name.startswith("building"):
            argv = ["index", "--catalog", catalog, "--building", str(bad)]
        else:
            argv = ["enumerate", "--catalog", catalog, "--asymptotics", str(bad)]
        code, out, err = run(capsys, *argv)
        site = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in puncture)
        assert (code, out, err) == (2, "", f"error: {bad}{site}: {message}\n")


class TestNumberPastFloatRange:
    """An integer too large for a float, in any number field, is an input error
    that cites the field's JSON path."""

    @pytest.mark.parametrize("name, keys, json_path", [
        ("catalog_demo.json", ("orbits", 1, "period"), "orbits[1].period"),
        ("catalog_demo.json", ("orbits", 0, "model", "samples", 4, 1),
         "orbits[0].model.samples[4][1]"),
        ("catalog_table.json", ("orbits", 0, "model", "covers", "2", 1, 0),
         "orbits[0].model.covers['2'][1][0]"),
        ("building_figure3.json", ("components", 0, "punctures", 0, "constraint"),
         "components[0].punctures[0].constraint"),
        ("asymptotics_demo.json", ("punctures", 0, "constraint"), "punctures[0].constraint"),
    ])
    def test_cites_the_field(self, name, keys, json_path):
        loader = {"catalog": catalog_from_data, "building": building_from_data,
                  "asymptotics": cli.asymptotics_from_data}[name.split("_")[0]]
        with pytest.raises(InputError) as info:
            loader(_with_value(name, keys, 10**400), path="bad.json")
        assert str(info.value) == (
            f"bad.json.{json_path}: expected a finite number, got an integer past the float range")


class TestSurgery:
    def test_augment_then_core_restores(self, capsys, tmp_path):
        fig3 = str(FIXTURES / "building_figure3.json")
        code, out, _ = run(capsys, "surgery", "--building", fig3,
                           "--op", "augment", "--pair", "1")
        assert code == 0
        augmented = tmp_path / "augmented.json"
        augmented.write_text(out)
        code, out2, _ = run(capsys, "surgery", "--building", str(augmented),
                            "--op", "core")
        assert code == 0
        core_data = json.loads(out2)
        original_core_ids = {"main_top", "main_bot"}
        assert {c["id"] for c in core_data["components"]} == original_core_ids

    def test_union_renames_clashes(self, capsys):
        cyl = str(FIXTURES / "building_cylinder.json")
        code, out, _ = run(capsys, "surgery", "--building", cyl,
                           "--op", "union", "--other", cyl)
        assert code == 0
        data = json.loads(out)
        assert sorted(c["id"] for c in data["components"]) == ["cyl", "cyl~1"]

    def test_node_and_glue(self, capsys, tmp_path):
        cyl = str(FIXTURES / "building_cylinder.json")
        _, out, _ = run(capsys, "surgery", "--building", cyl,
                        "--op", "union", "--other", cyl)
        union_file = tmp_path / "union.json"
        union_file.write_text(out)
        code, out2, _ = run(capsys, "surgery", "--building", str(union_file),
                            "--op", "glue", "--pos", "cyl:0", "--neg", "cyl~1:1")
        assert code == 0
        assert len(json.loads(out2)["breaking_pairs"]) == 1
        code, out3, _ = run(capsys, "surgery", "--building", str(union_file),
                            "--op", "node", "--components", "cyl,cyl~1")
        assert code == 0
        assert json.loads(out3)["nodal_pairs"] == [["cyl", "cyl~1"]]

    def test_surgery_error_is_input_error(self, capsys):
        cyl = str(FIXTURES / "building_cylinder.json")
        code, _, err = run(capsys, "surgery", "--building", cyl,
                           "--op", "augment", "--site", "ghost:0")
        assert code == 2
        assert "ghost" in err

    @pytest.mark.parametrize("flags, cited", [
        (["--op", "augment", "--site", "cyl_top:5"], "--site"),
        (["--op", "glue", "--pos", "cyl_top:7", "--neg", "cyl_bot:1"], "--pos/--neg"),
    ])
    def test_out_of_range_puncture_is_input_error(self, capsys, flags, cited):
        fig3 = str(FIXTURES / "building_figure3.json")
        code, out, err = run(capsys, "surgery", "--building", fig3, *flags)
        assert code == 2
        assert out == ""
        assert "internal error" not in err and "Traceback" not in err
        assert err.startswith(f"error: {cited}: ")
        assert "out of range for component 'cyl_top'" in err

    def test_glue_over_distinct_orbits_names_them(self, capsys):
        fig3 = str(FIXTURES / "building_figure3.json")
        code, out, err = run(capsys, "surgery", "--building", fig3,
                             "--op", "glue", "--pos", "cyl_top:0", "--neg", "cyl_bot:1")
        assert (code, out, err) == (2, "", "error: --pos/--neg: cannot glue punctures over "
                                           "distinct orbits rot_p^1 and rot_m^1\n")

    def test_core_without_a_core_cites_the_building_file(self, capsys):
        cyl = str(FIXTURES / "building_cylinder.json")
        code, out, err = run(capsys, "surgery", "--building", cyl, "--op", "core")
        assert (code, out) == (2, "")
        assert err == (f"error: {cyl}: building has no core: a connected piece consists "
                       "entirely of trivial cylinders\n")

    def test_stable_check_of_a_disconnected_building_cites_the_file(self, capsys, tmp_path):
        cyl = str(FIXTURES / "building_cylinder.json")
        _, out, _ = run(capsys, "surgery", "--building", cyl, "--op", "union", "--other", cyl)
        union_file = tmp_path / "union.json"
        union_file.write_text(out)
        code, out, err = run(capsys, "check", "--theorem", "stable", "--catalog",
                             str(FIXTURES / "catalog_demo.json"), "--building", str(union_file))
        assert (code, out, err) == (
            2, "", f"error: {union_file}: stable-limit classification needs a connected building\n")


class TestEmptyBuilding:
    """A building without components is not connected: `index` shows no
    genus, the stable check refuses it as disconnected, and it is nicely
    embedded (it has nothing to violate)."""

    @pytest.fixture
    def empty(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"format": 1, "components": []}')
        return str(path)

    def command(self, capsys, empty, *argv):
        return run(capsys, *argv, "--catalog", str(FIXTURES / "catalog_demo.json"),
                   "--building", empty)

    def test_index_has_no_genus(self, capsys, empty):
        code, out, err = self.command(capsys, empty, "index")
        assert (code, err) == (0, "")
        assert "genus     = n/a (disconnected)\n" in out
        code, out, err = self.command(capsys, empty, "index", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["report"]["genus"] is None

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_stable_check_cites_the_file(self, capsys, empty, json_flag):
        code, out, err = self.command(capsys, empty, "check", "--theorem", "stable", *json_flag)
        assert (code, out, err) == (
            2, "", f"error: {empty}: stable-limit classification needs a connected building\n")

    def test_validate_is_ok(self, capsys, empty):
        assert self.command(capsys, empty, "validate") == (0, "nicely embedded: ok\n", "")


class TestHumanOutput:
    def test_validate_ok_output(self, capsys):
        code, out, _ = run(
            capsys,
            "validate",
            "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--building", str(FIXTURES / "building_figure3.json"),
        )
        assert code == 0
        assert "ok" in out

    def test_spectrum_table_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "spectrum",
            "--catalog", str(FIXTURES / "catalog_table.json"),
            "--orbit", "rot_tab",
            "--cover", "2",
            "--window", "10",
        )
        assert code == 0
        assert "-3.141592654" in out


def _with_value(name, keys, value):
    """A fixture's JSON data with the entry at `keys` replaced by `value`."""
    data = json.loads((FIXTURES / name).read_text())
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return data


# loader -> (fixture, keys of a number in it, JSON path the loader reports)
NON_FINITE_SITES = {
    "catalog": (
        "catalog_demo.json",
        ("orbits", 0, "model", "samples", 0, 0),
        "orbits[0].model.samples[0][0]",
    ),
    "building": (
        "building_figure3.json",
        ("components", 0, "punctures", 1, "constraint"),
        "components[0].punctures[1].constraint",
    ),
    "asymptotics": (
        "asymptotics_demo.json",
        ("punctures", 0, "constraint"),
        "punctures[0].constraint",
    ),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", sorted(NON_FINITE_SITES))
    def test_file_loaders_exit_2(self, kind, value, tmp_path):
        name, keys, _ = NON_FINITE_SITES[kind]
        bad = tmp_path / f"bad_{kind}.json"
        bad.write_text(json.dumps(_with_value(name, keys, value)))
        files = {
            "catalog": str(FIXTURES / "catalog_demo.json"),
            "building": str(FIXTURES / "building_figure3.json"),
            "asymptotics": str(FIXTURES / "asymptotics_demo.json"),
        }
        files[kind] = str(bad)
        if kind == "asymptotics":
            argv = ["enumerate", "--catalog", files["catalog"],
                    "--asymptotics", files["asymptotics"]]
        else:
            argv = ["index", "--catalog", files["catalog"], "--building", files["building"]]
        # a fresh process, so a hang is caught by the timeout
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "hbcalc.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert str(bad) in proc.stderr
        assert "non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("kind", sorted(NON_FINITE_SITES))
    def test_schema_layer_cites_path(self, kind, value):
        name, keys, json_path = NON_FINITE_SITES[kind]
        data = _with_value(name, keys, value)
        loader = {
            "catalog": catalog_from_data,
            "building": building_from_data,
            "asymptotics": cli.asymptotics_from_data,
        }[kind]
        with pytest.raises(InputError, match=re.escape(f"{kind}.{json_path}")):
            loader(data)


class TestNonFiniteWindow:
    @pytest.mark.parametrize("window", ["nan", "inf", "-inf", "0", "-1"])
    def test_spectrum_window_rejected(self, capsys, window):
        code, out, err = run(
            capsys,
            "spectrum",
            "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--orbit", "rot_p",
            f"--window={window}",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --window: window must be finite and positive, got {float(window)}\n"

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_threshold_rejected(self, demo_catalog, threshold):
        ref = OrbitRef("rot_p", 1)
        with pytest.raises(CatalogError, match="finite"):
            demo_catalog.cz_index(ref, threshold)


class TestFlagMessages:
    """An error in a flag's value names the flag (exit 2, nothing on stdout)."""

    DEMO = str(FIXTURES / "catalog_demo.json")
    FIG3 = str(FIXTURES / "building_figure3.json")

    @pytest.mark.parametrize("flags, message", [
        (["--orbit", "rot_p", "--cover", "0", "--window", "10"],
         "--cover: covering number must be >= 1, got 0"),
        (["--orbit", "nope", "--window", "10"],
         f"--orbit: unknown orbit id 'nope' (not in catalog {DEMO})"),
    ])
    def test_spectrum(self, capsys, flags, message):
        code, out, err = run(capsys, "spectrum", "--catalog", self.DEMO, *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags, message", [
        (["--op", "augment", "--pair", "99"], "--pair: breaking pair index 99 out of range"),
        (["--op", "augment", "--site", "cyl_top:5"],
         "--site: site ('cyl_top', 5) is out of range for component 'cyl_top'"),
        (["--op", "node", "--components", "main_top,zzz"],
         "--components: unknown component 'zzz'"),
    ])
    def test_surgery(self, capsys, flags, message):
        code, out, err = run(capsys, "surgery", "--building", self.FIG3, *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestInternalError:
    def test_stray_exception_exits_2_without_traceback(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_check", boom)
        code, out, err = run(
            capsys,
            "check",
            "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--building", str(FIXTURES / "building_figure3.json"),
            "--theorem", "stable",
        )
        assert code == 2
        assert out == ""
        assert err == "error: internal error: RuntimeError: boom\n"


class TestResourceBudget:
    @pytest.mark.parametrize(
        "flags, grid",
        [(["--window", "1e5"], 159179), (["--cover", "1000"], 33001),
         (["--grid", "100001"], 100001)],
    )
    def test_spectrum_over_budget_exits_2(self, flags, grid):
        argv = ["spectrum", "--catalog", str(FIXTURES / "catalog_demo.json"),
                "--orbit", "rot_p", "--window", "10", *flags]
        # a fresh process with a timeout: the check must fire before allocating
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "hbcalc.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert f"grid {grid} needs a dense operator" in proc.stderr
        assert "budget of 4096" in proc.stderr
        assert "Traceback" not in proc.stderr


def _asymptotics_file(path, ends):
    """Write an asymptotics file of unconstrained (sign, simple orbit) ends."""
    path.write_text(json.dumps({"format": 1, "rel_c1": 0, "punctures": [
        {"sign": sign, "orbit": {"simple": simple, "k": 1}, "constraint": 0.0}
        for sign, simple in ends]}))
    return str(path)


class TestEnumerateBudget:
    """``enumerate`` counts its limits before it builds any, and refuses more
    than MAX_LIMITS (exit 2, citing the asymptotics file) at a cost that does
    not grow with the count."""

    @pytest.mark.parametrize("n_rot_m", [22, 62])
    def test_wide_curve_exits_2_before_listing(self, capsys, monkeypatch, tmp_path, n_rot_m):
        catalog = cli.load_catalog(str(FIXTURES / "catalog_demo.json"))
        monkeypatch.setattr(cli, "load_catalog", lambda filename: catalog)
        # each rot_p end tops one side of the hyp_even breaking, each rot_m end
        # (signed index -1) may sit on either side: 2 * 2^n_rot_m limits
        path = _asymptotics_file(tmp_path / "wide.json",
                                 [("+", "rot_p")] * 2 + [("+", "rot_m")] * n_rot_m)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run(capsys, "enumerate", "--catalog", "demo", "--asymptotics",
                                 path, "--json")
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: {n_rot_m + 2} ends have {2 ** (n_rot_m + 1)} "
                       f"admissible limit types, above the budget of {MAX_LIMITS}\n")
        assert elapsed < 3.0
        assert peak < 2**20

    def test_partial_sum_table_has_a_budget(self, capsys, tmp_path):
        # table orbits rotating by pi/2 + 2 pi a have CZ index 2a + 1, so ends
        # of index 2^(j+1) - 1 (j < 19), balanced by one negative end, have 2^19
        # distinct partial index sums: the counting table refuses to grow past
        # MAX_PARTIAL_SUMS entries, although the curve has few limits
        demo = json.loads((FIXTURES / "catalog_demo.json").read_text())
        orbits = [o for o in demo["orbits"] if o["id"] == "hyp_even"]
        shifts = {f"r{j}": 2**j - 1 for j in range(19)}
        shifts["big"] = 2**19 - 3
        for oid, a in shifts.items():
            rows = analytic_rotation_table(math.pi / 2 + 2 * math.pi * a, 8.0)
            orbits.append({"id": oid, "period": 1.0, "hyperbolic": False,
                           "model": {"type": "table", "covers": {"1": [list(r) for r in rows]}}})
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps({"format": 1, "orbits": orbits}))
        path = _asymptotics_file(tmp_path / "spread.json",
                                 [("+", f"r{j}") for j in range(19)] + [("-", "big")])
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--catalog", str(catalog),
                             "--asymptotics", path)
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: counting the limit types of 20 ends needs a table "
                       f"past the budget of {MAX_PARTIAL_SUMS} partial index sums\n")
        assert time.perf_counter() - start < 5.0


class TestClosedStdout:
    def test_reader_closing_early_is_not_an_internal_error(self, tmp_path):
        # 4096 limits print about 200 kB, far past a pipe buffer, so the writer
        # meets the closed pipe while it still has lines to print
        path = _asymptotics_file(tmp_path / "wide.json",
                                 [("+", "rot_p")] * 2 + [("+", "rot_m")] * 11)
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hbcalc.cli", "enumerate", "--catalog",
             str(FIXTURES / "catalog_demo.json"), "--asymptotics", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"4096 admissible limit type(s)\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == b""


    def test_stderr_closed_before_an_error_message(self):
        # the message cannot be shown, but the exit code still says "input error"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hbcalc.cli", *GOLDEN_BY_CODE["loader"]["argv"]],
                cwd=REPO, env=fresh_env(), stdout=subprocess.PIPE, stderr=write_end, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stdout) == (2, b"")

    def test_help_to_a_stdout_whose_reader_has_gone(self):
        # the help text waits in the buffer for run's flush, which fails quietly
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "hbcalc.cli", "--help"], cwd=REPO,
                                  env=fresh_env(), stdout=write_end, stderr=subprocess.PIPE,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_stdout_closed_at_start(self, extra):
        # Python then has no sys.stdout: a reader that has gone, so nothing is shown
        proc = subprocess.run(
            [sys.executable, "-m", "hbcalc.cli", *GOLDEN_BY_CODE["0"]["argv"], *extra], cwd=REPO,
            env=fresh_env(), stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=60)
        assert (proc.returncode, proc.stderr) == (2, b"")


def fresh_env() -> dict:
    """The environment of a fresh command, its stdout block-buffered as in a shell."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONUNBUFFERED", None)
    return env


GOLDEN = json.loads((REPO / "tests" / "golden" / "cli.json").read_text())
#: one pinned case per exit code: success, violations, a loader error, a flag error
GOLDEN_BY_CODE = {
    name: next(c for c in GOLDEN if c["code"] == code and c["stderr"].startswith(prefix))
    for name, code, prefix in [("0", 0, ""), ("1", 1, ""), ("loader", 2, "error: fixtures/"),
                               ("flag", 2, "error: --")]
}


class TestProcessEntry:
    """`python -m hbcalc.cli` runs through `cli.run` (collector off, os._exit);
    `main` called in process keeps the collector and returns."""

    def test_main_in_process_keeps_the_collector(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        assert gc.isenabled()
        for case in GOLDEN_BY_CODE.values():
            assert main(case["argv"]) == case["code"]
            assert gc.isenabled()
        with pytest.raises(SystemExit):
            main(["index", "--bogus"])
        assert gc.isenabled()

    def test_run_turns_the_collector_off_and_skips_teardown(self):
        # an atexit handler stands for the interpreter's teardown, which os._exit skips
        script = ("import atexit, gc, hbcalc.cli as cli\n"
                  "atexit.register(print, 'teardown')\n"
                  "cli.main = lambda: print('collector on:', gc.isenabled()) or 3\n"
                  "cli.run()\n")
        proc = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=fresh_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "collector on: False\n", "")

    def test_console_script_is_run(self):
        scripts = (REPO / "pyproject.toml").read_text().split("[project.scripts]")[1]
        assert scripts.split("[")[0].split() == ["hbcalc", "=", '"hbcalc.cli:run"']

    @pytest.mark.parametrize("name", list(GOLDEN_BY_CODE))
    def test_fresh_process_gives_the_golden_output(self, name):
        case = GOLDEN_BY_CODE[name]
        proc = subprocess.run([sys.executable, "-m", "hbcalc.cli", *case["argv"]], cwd=REPO,
                              env=fresh_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            case["code"], case["stdout"], case["stderr"])

    def test_fresh_process_argparse_error(self, capsys):
        argv = ["index", "--catalog", str(FIXTURES / "catalog_demo.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "hbcalc.cli", *argv], cwd=REPO,
                              env=fresh_env(), capture_output=True, text=True, timeout=60)
        assert exc.value.code == proc.returncode == 2
        assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
        assert "the following arguments are required: --building" in proc.stderr


class TestGridPastFloatRange:
    """Requests whose grid size overflows a float are over budget (exit 2), not
    an OverflowError."""

    def test_constraint_near_float_limit(self, capsys, tmp_path):
        data = json.loads((FIXTURES / "asymptotics_demo.json").read_text())
        data["punctures"][0]["constraint"] = 1.7e308
        path = tmp_path / "asymptotics.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "enumerate", "--catalog",
                             str(FIXTURES / "catalog_demo.json"), "--asymptotics", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: window 1.7e+308 at cover 1 needs a grid past the float")

    def test_cover_past_float_range(self, capsys, tmp_path):
        data = json.loads((FIXTURES / "asymptotics_demo.json").read_text())
        data["punctures"][0]["orbit"]["k"] = 10**400
        path = tmp_path / "asymptotics.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "enumerate", "--catalog",
                             str(FIXTURES / "catalog_demo.json"), "--asymptotics", str(path))
        assert (code, out) == (2, "")
        assert "needs a grid past the float range" in err
        code, out, err = run(capsys, "spectrum", "--catalog", str(FIXTURES / "catalog_demo.json"),
                             "--orbit", "rot_p", "--cover", str(10**400), "--window", "10")
        assert (code, out) == (2, "")
        assert "needs a grid past the float range" in err


class TestIndexAdditivity:
    ARGV = ("index", "--catalog", str(FIXTURES / "catalog_demo.json"),
            "--building", str(FIXTURES / "building_figure3.json"), "--json")

    def test_index_runs_the_additivity_audit(self, capsys, monkeypatch):
        calls = []
        real = ic.verify_additivity
        monkeypatch.setattr(
            ic, "verify_additivity", lambda *a: calls.append(a) or real(*a)
        )
        code, out, _ = run(capsys, *self.ARGV)
        assert code == 0 and len(calls) == 1
        catalog, building = calls[0]
        expected = cli.index_report_to_data(ic.index_report(catalog, building))
        assert out == json.dumps({"format": cli.FORMAT_VERSION, "report": expected},
                                 sort_keys=True, indent=2) + "\n"

    def test_additivity_failure_exits_2(self, capsys, monkeypatch):
        def broken(catalog, building):
            raise InternalCheckError("index additivity failed: 1 != 0 + 0")

        monkeypatch.setattr(ic, "verify_additivity", broken)
        code, out, err = run(capsys, *self.ARGV)
        assert code == 2
        assert out == ""
        assert err == "error: index additivity failed: 1 != 0 + 0\n"


class TestHugeFlowSamples:
    def test_overflowing_strength_cites_samples_path(self, tmp_path):
        data = json.loads((FIXTURES / "catalog_demo.json").read_text())
        data["orbits"][0]["model"]["samples"] = [[1e308, 0.0, 1e308]] * 3
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(data))
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "hbcalc.cli", "spectrum", "--catalog", str(bad),
             "--orbit", data["orbits"][0]["id"], "--window", "10"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        # one error line naming the JSON path: no numpy warning, no internal error
        assert proc.stderr == (
            f"error: {bad}.orbits[0].model.samples: coefficient samples must have a "
            "finite spectral norm (it overflows)\n"
        )
