import json
import os
import re
import subprocess
import sys

import pytest

from hbcalc import cli
from hbcalc.cli import (
    building_from_data,
    building_to_data,
    catalog_from_data,
    catalog_to_data,
    main,
)
from hbcalc.errors import CatalogError, InputError
from hbcalc.orbits import OrbitRef

from support import FIXTURES, REPO

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
    @pytest.mark.parametrize("window", ["nan", "inf", "-inf", "0"])
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
        assert "window must be finite and positive" in err

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_threshold_rejected(self, demo_catalog, threshold):
        ref = OrbitRef("rot_p", 1)
        with pytest.raises(CatalogError, match="finite"):
            demo_catalog.alpha(ref, threshold, "minus")
        with pytest.raises(CatalogError, match="finite"):
            demo_catalog.cz_index(ref, threshold)


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
