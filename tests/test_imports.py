"""Cold start: each subcommand loads only the hbcalc modules it runs, and the
package itself loads numpy only when a spectral name is first read."""

import os
import subprocess
import sys

import pytest

import hbcalc
from hbcalc import spectral

from support import REPO

BUILDING = "fixtures/building_figure3.json"
NUMERIC = ("numpy", "hbcalc.orbits", "hbcalc.spectral")
LAYERS = ("hbcalc.index_calculus", "hbcalc.degeneration")

#: README fixture commands and the modules each must not load
FOOTPRINTS = {
    "surgery_core": (["surgery", "--building", BUILDING, "--op", "core"], NUMERIC + LAYERS),
    "surgery_augment": (["surgery", "--building", BUILDING, "--op", "augment", "--pair", "0"],
                        NUMERIC + LAYERS),
    "surgery_node": (["surgery", "--building", BUILDING, "--op", "node",
                      "--components", "main_top,main_bot"], NUMERIC + LAYERS),
    "surgery_union": (["surgery", "--building", "fixtures/building_cylinder.json", "--op",
                       "union", "--other", BUILDING], NUMERIC + LAYERS),
    "spectrum": (["spectrum", "--catalog", "fixtures/catalog_demo.json", "--orbit", "rot_p",
                  "--cover", "1", "--window", "10", "--json"], LAYERS),
    "index": (["index", "--catalog", "fixtures/catalog_demo.json", "--building", BUILDING,
               "--json"], ("hbcalc.degeneration",)),
}


def loaded_modules(argv) -> set:
    """Run `python -m hbcalc.cli argv` in a fresh process (it must succeed)
    and return every module it imported, as ``-X importtime`` lists them."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "hbcalc.cli", *argv],
                          cwd=REPO, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}  # lines[0] is a header


@pytest.mark.parametrize("name", sorted(FOOTPRINTS))
def test_subcommand_loads_only_what_it_runs(name):
    argv, absent = FOOTPRINTS[name]
    modules = loaded_modules(argv)
    assert "hbcalc.buildings" in modules
    assert sorted(modules & set(absent)) == []


class TestPackageExports:
    def test_spectral_names_are_the_spectral_objects(self):
        assert hbcalc.FlowLoop is spectral.FlowLoop
        assert hbcalc.spectrum_from_loop is spectral.spectrum_from_loop

    def test_export_list_is_pinned(self):
        assert sorted(hbcalc.__all__) == [
            "BuildingError", "CatalogError", "DegenerateThresholdError", "FlowLoop",
            "HbcalcError", "IncompleteInputError", "InconsistentDataError", "InputError",
            "InternalCheckError", "NoCoreError", "SpectralEntry", "SpectralResolutionError",
            "SpectralTable", "build_operator", "cz_crossing", "fourier_diff_matrix",
            "spectrum_from_loop",
        ]

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from hbcalc import *", namespace)
        assert set(hbcalc.__all__) <= set(namespace)
        for name in hbcalc.__all__:
            assert namespace[name] is getattr(hbcalc, name)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hbcalc.no_such_name  # noqa: B018
        assert getattr(hbcalc, "MAX_LIMITS", None) is None
