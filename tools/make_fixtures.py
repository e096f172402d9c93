"""Regenerate the JSON fixtures under fixtures/ from first principles.

Run from the repository root:  python3 tools/make_fixtures.py

The shipped fixtures are byte-for-byte the canonical emission of the
serializers, so the round-trip tests can compare exact bytes.  Buildings are
written by hbcalc.cli.building_to_data, which the `surgery` command also
prints with; catalogs, which no command writes, by `catalog_to_data` here.
"""

import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hbcalc.buildings import Building, Component, Puncture, set_constraints
from hbcalc.cli import FORMAT_VERSION, _dump_json, building_to_data
from hbcalc.orbits import Catalog, OrbitRef, SimpleOrbit
from hbcalc.spectral import FlowLoop

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def rotation_loop(theta: float, n: int = 33) -> FlowLoop:
    """Constant rotation coefficients: spectrum 2*pi*m - theta, winding m."""
    return FlowLoop(np.tile(theta * np.eye(2), (n, 1, 1)))


def hyperbolic_loop(a: float = 1.0, n: int = 33) -> FlowLoop:
    """Constant diag(a, -a): even hyperbolic orbit with mu = 0."""
    return FlowLoop(np.tile(np.diag([a, -a]), (n, 1, 1)))


def rotating_axis_loop(half_turns: int, a: float = 0.7, n: int = 33) -> FlowLoop:
    """Hyperbolic stretch whose axis makes `half_turns` half-turns per period.

    The linearized flow is R(pi h t) exp(t diag(a, -a)); odd half-turn counts
    give odd hyperbolic orbits (negative monodromy eigenvalues, mu = h) and
    even counts give even hyperbolic orbits with shifted windings (mu = h).
    """
    ts = np.arange(n) / n
    phase = 2 * math.pi * half_turns * ts
    s = np.zeros((n, 2, 2))
    s[:, 0, 0] = math.pi * half_turns + a * np.sin(phase)
    s[:, 0, 1] = -a * np.cos(phase)
    s[:, 1, 0] = -a * np.cos(phase)
    s[:, 1, 1] = math.pi * half_turns - a * np.sin(phase)
    return FlowLoop(s)


def catalog_to_data(catalog: Catalog) -> dict:
    """The catalog file of `catalog`: a flow loop as its sample rows
    [s11, s12, s22], a table model as its [eigenvalue, winding, multiplicity]
    rows per cover (hbcalc.cli.catalog_from_data reads it back)."""
    orbits = []
    for oid in catalog.ids():
        orbit = catalog.orbit(oid)
        if orbit.is_flow:
            rows = [[float(s[0, 0]), float(s[0, 1]), float(s[1, 1])] for s in orbit.model.samples]
            model = {"type": "flow", "samples": rows}
        else:
            model = {
                "type": "table",
                "covers": {
                    str(k): [[e.eigenvalue, e.winding, e.multiplicity] for e in table.entries]
                    for k, table in sorted(orbit.model.items())
                },
            }
        record = {"id": oid, "period": orbit.period, "model": model}
        if orbit.hyperbolic is not None:
            record["hyperbolic"] = orbit.hyperbolic
        orbits.append(record)
    return {"format": FORMAT_VERSION, "orbits": orbits}


def demo_catalog() -> Catalog:
    return Catalog([
        SimpleOrbit("hyp_even", 1.0, hyperbolic_loop()),
        SimpleOrbit("rot_m", 1.0, rotation_loop(-math.pi / 2)),
        SimpleOrbit("rot_p", 1.0, rotation_loop(math.pi / 2)),
    ])


def fixture_catalog() -> Catalog:
    return Catalog([
        SimpleOrbit("hyp2", 1.0, rotating_axis_loop(2)),
        SimpleOrbit("hyp_even", 1.0, hyperbolic_loop()),
        SimpleOrbit("hyp_odd", 1.0, rotating_axis_loop(1)),
        SimpleOrbit("rot3", 1.0, rotation_loop(5 * math.pi / 2)),
        SimpleOrbit("rot_m", 1.0, rotation_loop(-math.pi / 2)),
        SimpleOrbit("rot_p", 1.0, rotation_loop(math.pi / 2)),
    ])


def table_catalog() -> dict:
    # analytic rotation spectrum 2*pi*m - pi/2 (cover 1) and 2*pi*m - pi
    # (cover 2), listed as complete winding classes
    def entries(theta, count=2):
        return [
            [2 * math.pi * m - theta, m, 2] for m in range(-count, count + 1)
        ]

    return {
        "format": 1,
        "orbits": [
            {
                "id": "rot_tab",
                "period": 1.0,
                "model": {
                    "type": "table",
                    "covers": {"1": entries(math.pi / 2), "2": entries(math.pi)},
                },
                "hyperbolic": False,
            }
        ],
    }


def trivial_cylinder_building() -> Building:
    orbit = OrbitRef("hyp_even", 1)
    return Building(
        components=(
            Component(
                "cyl",
                0,
                (Puncture(1, orbit), Puncture(-1, orbit)),
                kind="trivial",
            ),
        )
    )


def figure3_building() -> Building:
    """Two index-1 nicely embedded components joined along an even simple
    breaking orbit, with flanking trivial cylinders over the odd ends."""
    rp, rm, he = OrbitRef("rot_p"), OrbitRef("rot_m"), OrbitRef("hyp_even")

    def tcyl(cid, orbit):
        return Component(cid, 0, (Puncture(1, orbit), Puncture(-1, orbit)), kind="trivial")

    return Building(
        components=(
            tcyl("cyl_top", rp),
            Component(
                "main_top",
                0,
                (
                    Puncture(1, rp, controlling_winding=0),
                    Puncture(-1, he, controlling_winding=0),
                ),
                kind="nontrivial",
                wind_pi=0,
                image_class="west",
            ),
            Component(
                "main_bot",
                0,
                (
                    Puncture(1, he, controlling_winding=0),
                    Puncture(-1, rm, controlling_winding=0),
                ),
                kind="nontrivial",
                wind_pi=0,
                image_class="east",
            ),
            tcyl("cyl_bot", rm),
        ),
        breaking_pairs=(
            (("main_top", 0), ("cyl_top", 1)),
            (("main_bot", 0), ("main_top", 1)),
            (("cyl_bot", 0), ("main_bot", 1)),
        ),
    )


def oddbreak_building() -> Building:
    """Mutant of the broken-pair configuration whose breaking orbit is odd;
    component data stays self-consistent (c_N = 0, extremal windings)."""
    h2, rp, he = OrbitRef("hyp2"), OrbitRef("rot_p"), OrbitRef("hyp_even")
    return Building(
        components=(
            Component(
                "main_top",
                0,
                (
                    Puncture(1, h2, controlling_winding=1),
                    Puncture(-1, rp, controlling_winding=1),
                ),
                kind="nontrivial",
                wind_pi=0,
                image_class="west",
            ),
            Component(
                "main_bot",
                0,
                (
                    Puncture(1, rp, controlling_winding=0),
                    Puncture(-1, he, controlling_winding=0),
                ),
                kind="nontrivial",
                wind_pi=0,
                image_class="east",
            ),
        ),
        breaking_pairs=((("main_bot", 0), ("main_top", 1)),),
    )


def plane_building() -> Building:
    """One nicely embedded index-1 plane with its positive end on the odd
    orbit hyp2: the stable limit is SMOOTH."""
    end = Puncture(1, OrbitRef("hyp2"), controlling_winding=1)
    return Building(components=(
        Component("v", 0, (end,), kind="nontrivial", wind_pi=0, image_class="leaf"),
    ))


def demo_asymptotics() -> dict:
    puncture = {"constraint": 0.0, "orbit": {"k": 1, "simple": "rot_p"}, "sign": "+"}
    return {"format": 1, "punctures": [puncture, dict(puncture)], "rel_c1": 0}


def constrained_building() -> Building:
    """The figure-3 building with constraint 2.0 on both external ends, so
    its ends are read at the nonzero cuts -2 (positive) and +2 (negative)."""
    return set_constraints(figure3_building(), {("cyl_top", 0): 2.0, ("cyl_bot", 1): 2.0})


def payloads() -> dict:
    """Every fixture's JSON payload, by file name under fixtures/."""
    return {
        "catalog_demo.json": catalog_to_data(demo_catalog()),
        "catalog_fixture.json": catalog_to_data(fixture_catalog()),
        "catalog_table.json": table_catalog(),
        "building_cylinder.json": building_to_data(trivial_cylinder_building()),
        "building_figure3.json": building_to_data(figure3_building()),
        "building_constrained.json": building_to_data(constrained_building()),
        "building_fig3_oddbreak.json": building_to_data(oddbreak_building()),
        "building_plane.json": building_to_data(plane_building()),
        "asymptotics_demo.json": demo_asymptotics(),
    }


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for name, payload in sorted(payloads().items()):
        path = FIXTURES / name
        with path.open("w", encoding="utf-8") as handle:
            _dump_json(payload, handle)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
