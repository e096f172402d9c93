"""Write the golden CLI outputs that tests/test_golden.py compares against.

Run from the repository root:  python3 tools/make_golden.py

Each case is one command line of the README's fixture commands; it runs as a
fresh ``python -m hbcalc.cli`` process from the repository root (paths in the
arguments are relative to it), and its exit code, stdout and stderr are
written to tests/golden/cli.json.  Regenerate only when a change of output is
intended, and say which bytes changed and why.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "tests" / "golden" / "cli.json"

FLOW_CATALOGS = ("fixtures/catalog_demo.json", "fixtures/catalog_fixture.json")
# building_constrained.json reads its external ends at nonzero cuts
BUILDINGS = ("fixtures/building_cylinder.json", "fixtures/building_figure3.json",
             "fixtures/building_fig3_oddbreak.json", "fixtures/building_constrained.json")
FIGURE3 = "fixtures/building_figure3.json"


def cases() -> list[list[str]]:
    out = []
    for catalog in FLOW_CATALOGS:
        for building in BUILDINGS:
            for command in (["index"], ["validate"], ["check", "--theorem", "stable"]):
                argv = command + ["--catalog", catalog, "--building", building]
                out += [argv, argv + ["--json"]]
        argv = ["enumerate", "--catalog", catalog, "--asymptotics",
                "fixtures/asymptotics_demo.json"]
        out += [argv, argv + ["--json"]]
    for catalog, orbit, cover, window, grid in (
            ("fixtures/catalog_demo.json", "rot_p", 1, 10, None),
            ("fixtures/catalog_demo.json", "rot_p", 3, 10, 201),
            ("fixtures/catalog_demo.json", "hyp_even", 2, 8, None),
            ("fixtures/catalog_fixture.json", "hyp2", 2, 12, None),
            ("fixtures/catalog_fixture.json", "rot3", 1, 9, 101),
            ("fixtures/catalog_table.json", "rot_tab", 1, 5, None)):
        argv = ["spectrum", "--catalog", catalog, "--orbit", orbit, "--cover", str(cover),
                "--window", str(window), "--json"]
        out.append(argv + (["--grid", str(grid)] if grid else []))
    # window 5 on the 33-sample demo loops: the default grid is the sample count
    for orbit in ("rot_m", "rot_p"):
        out.append(["spectrum", "--catalog", "fixtures/catalog_demo.json", "--orbit", orbit,
                    "--window", "5", "--json"])
    for building, op in (
            (FIGURE3, ["augment", "--site", "cyl_top:0"]), (FIGURE3, ["augment", "--pair", "1"]),
            (FIGURE3, ["core"]), (FIGURE3, ["node", "--components", "main_top,main_bot"]),
            ("fixtures/building_cylinder.json", ["glue", "--pos", "cyl:0", "--neg", "cyl:1"]),
            (FIGURE3, ["union", "--other", "fixtures/building_cylinder.json"])):
        out.append(["surgery", "--building", building, "--op"] + op)
    # exit 2: an orbit the catalog does not have
    out.append(["spectrum", "--catalog", "fixtures/catalog_demo.json", "--orbit", "nowhere",
                "--window", "5", "--json"])
    # exit 2: a grid that leaves the cover fewer than 3 points a period
    out.append(["spectrum", "--catalog", "fixtures/catalog_demo.json", "--orbit", "rot_p",
                "--cover", "200", "--window", "10", "--grid", "101", "--json"])
    out.append(["index", "--catalog", "fixtures/catalog_table.json", "--building", FIGURE3])
    # exit 2: a surgery op without the flags it needs, or with both of augment's
    for op in (["augment", "--site", "cyl_top:0", "--pair", "1"], ["augment"], ["node"],
               ["glue", "--pos", "cyl_top:0"], ["union"]):
        out.append(["surgery", "--building", FIGURE3, "--op"] + op)
    # the text output of a flow orbit and of a table orbit
    out.append(["spectrum", "--catalog", "fixtures/catalog_demo.json", "--orbit", "rot_p",
                "--cover", "1", "--window", "10"])
    out.append(["spectrum", "--catalog", "fixtures/catalog_table.json", "--orbit", "rot_tab",
                "--window", "5"])
    # exit 2: a glue over distinct orbits, cited at its flags, and a building
    # without a core, cited at its file
    out.append(["surgery", "--building", FIGURE3, "--op", "glue", "--pos", "cyl_top:0",
                "--neg", "cyl_bot:1"])
    out.append(["surgery", "--building", "fixtures/building_cylinder.json", "--op", "core"])
    # a union with itself: every component id and site of the other is renamed
    out.append(["surgery", "--building", FIGURE3, "--op", "union", "--other", FIGURE3])
    # even covers on small explicit grids, whose scans reach the top of Bloch
    # block k/2, where its alternating-mode pair is deflated (exit 2 on grid 5)
    for orbit, cover, window, grid in (("rot_p", 2, 10, 5), ("rot_p", 2, 10, 9),
                                       ("hyp_even", 2, 8, 15), ("hyp_even", 4, 20, 41)):
        out.append(["spectrum", "--catalog", "fixtures/catalog_demo.json", "--orbit", orbit,
                    "--cover", str(cover), "--window", str(window), "--grid", str(grid),
                    "--json"])
    # a nicely embedded plane, the one SMOOTH stable limit
    for command in (["check", "--theorem", "stable"], ["check", "--theorem", "stable", "--json"],
                    ["validate"], ["index"]):
        out.append(command + ["--catalog", "fixtures/catalog_fixture.json", "--building",
                              "fixtures/building_plane.json"])
    # exit 2: an augment at a site that a breaking pair joins
    out.append(["surgery", "--building", FIGURE3, "--op", "augment", "--site", "cyl_top:1"])
    return out


def run(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "hbcalc.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return {"argv": argv, "code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr}


def main() -> int:
    OUT.parent.mkdir(exist_ok=True)
    records = [run(argv) for argv in cases()]
    OUT.write_text(json.dumps(records, indent=1) + "\n")
    codes = sorted({r["code"] for r in records})
    print(f"{len(records)} cases, exit codes {codes}, written to {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
