"""Command-line front end: file formats, subcommands, deterministic reports.

Two JSON schemas, both versioned with a top-level ``"format": 1``:

Catalog file::

    {"format": 1,
     "orbits": [
       {"id": "rot_p", "period": 1.0,
        "model": {"type": "flow", "samples": [[s11, s12, s22], ...]},
        "hyperbolic": false}                       # optional, needed in table mode
       {"id": "tab", "period": 1.0,
        "model": {"type": "table",
                  "covers": {"1": [[lambda, winding, mult], ...]}},
        "hyperbolic": true} ]}

Flow samples are the symmetric coefficient loop of the asymptotic operator on
a uniform odd grid; table covers list complete winding classes (the trusted
window is the largest listed |eigenvalue|).

Building file::

    {"format": 1,
     "components": [
       {"id": "top", "genus": 0, "rel_c1": 0, "kind": "nontrivial",
        "wind_pi": 0, "image_class": "west",      # both optional
        "punctures": [
          {"sign": "+", "orbit": {"simple": "rot_p", "k": 1},
           "constraint": 0.0, "controlling_winding": 0}]}],   # winding optional
     "breaking_pairs": [[["bot", 0], ["top", 1]]],            # positive site first
     "nodal_pairs": [["a", "b"]]}

Asymptotics file (for ``enumerate``)::

    {"format": 1, "rel_c1": 0,
     "punctures": [{"sign": "+", "orbit": {"simple": "rot_p", "k": 1},
                    "constraint": 0.0}]}

Exit codes: 0 success or ok-verdict, 1 verdict violations, 2 input errors
(and internal errors, reported without a traceback).  Non-finite numbers
(NaN, Infinity) are input errors.
JSON output is byte-stable for fixed inputs (sorted keys, sorted lists).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys

from .buildings import (
    Building,
    Component,
    Puncture,
    add_node,
    augment,
    core,
    disjoint_union,
    glue_punctures,
)
from .degeneration import (
    Asymptotics,
    classify_stable_limit,
    enumerate_limits,
    validate_nice,
)
from .errors import HbcalcError, InputError
from .index_calculus import IndexReport, index_report
from .orbits import Catalog, OrbitRef, SimpleOrbit
from .spectral import FlowLoop, SpectralEntry, SpectralTable

log = logging.getLogger("hbcalc")

FORMAT_VERSION = 1


# --- schema helpers ----------------------------------------------------------


def _want(value, kind, path, kindname):
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise InputError(f"{path}: expected {kindname}")
    return value


def _obj(value, path) -> dict:
    return _want(value, dict, path, "an object")


def _arr(value, path) -> list:
    return _want(value, list, path, "an array")


def _str(value, path) -> str:
    return _want(value, str, path, "a string")


def _int(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{path}: expected an integer")
    return value


def _num(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{path}: expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise InputError(f"{path}: expected a finite number, got {value}")
    return value


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise InputError(f"{path}.{key}: required field missing")
    return obj[key]


def _check_format(obj: dict, path: str) -> None:
    version = _int(_get(obj, "format", path), f"{path}.format")
    if version != FORMAT_VERSION:
        raise InputError(f"{path}.format: unsupported version {version}")


def _load_json(filename: str):
    def reject_constant(name):
        raise InputError(f"{filename}: non-finite number {name} is not allowed")

    try:
        with open(filename, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_constant=reject_constant)
    except OSError as exc:
        raise InputError(f"cannot read {filename}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{filename}: invalid JSON: {exc}") from exc


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- catalog (de)serialization ------------------------------------------------


def catalog_from_data(data, path: str = "catalog") -> Catalog:
    root = _obj(data, path)
    _check_format(root, path)
    orbits = []
    for i, entry in enumerate(_arr(_get(root, "orbits", path), f"{path}.orbits")):
        opath = f"{path}.orbits[{i}]"
        record = _obj(entry, opath)
        oid = _str(_get(record, "id", opath), f"{opath}.id")
        period = _num(_get(record, "period", opath), f"{opath}.period")
        model_obj = _obj(_get(record, "model", opath), f"{opath}.model")
        mtype = _str(_get(model_obj, "type", f"{opath}.model"), f"{opath}.model.type")
        if mtype == "flow":
            rows = _arr(_get(model_obj, "samples", f"{opath}.model"), f"{opath}.model.samples")
            triples = []
            for j, row in enumerate(rows):
                rpath = f"{opath}.model.samples[{j}]"
                row = _arr(row, rpath)
                if len(row) != 3:
                    raise InputError(f"{rpath}: expected [s11, s12, s22]")
                triples.append([_num(v, f"{rpath}[{k}]") for k, v in enumerate(row)])
            try:
                model = FlowLoop.from_triples(triples, period)
            except ValueError as exc:
                raise InputError(f"{opath}.model.samples: {exc}") from exc
        elif mtype == "table":
            covers_obj = _obj(_get(model_obj, "covers", f"{opath}.model"), f"{opath}.model.covers")
            model = {}
            for key, rows in covers_obj.items():
                cpath = f"{opath}.model.covers[{key!r}]"
                try:
                    k = int(key)
                except ValueError:
                    raise InputError(f"{cpath}: cover keys must be integers") from None
                entries = []
                for j, row in enumerate(_arr(rows, cpath)):
                    rpath = f"{cpath}[{j}]"
                    row = _arr(row, rpath)
                    if len(row) != 3:
                        raise InputError(f"{rpath}: expected [eigenvalue, winding, multiplicity]")
                    entries.append(
                        SpectralEntry(
                            eigenvalue=_num(row[0], f"{rpath}[0]"),
                            winding=_int(row[1], f"{rpath}[1]"),
                            multiplicity=_int(row[2], f"{rpath}[2]"),
                        )
                    )
                entries.sort(key=lambda e: e.eigenvalue)
                window = max((abs(e.eigenvalue) for e in entries), default=0.0)
                table = SpectralTable(entries=tuple(entries), window=window, grid=0)
                try:
                    table.validate()
                except HbcalcError as exc:
                    raise InputError(f"{cpath}: {exc}") from exc
                model[k] = table
        else:
            raise InputError(f"{opath}.model.type: unknown model type {mtype!r}")
        hyperbolic = record.get("hyperbolic")
        if hyperbolic is not None and not isinstance(hyperbolic, bool):
            raise InputError(f"{opath}.hyperbolic: expected a boolean")
        try:
            orbits.append(SimpleOrbit(oid, period, model, hyperbolic))
        except HbcalcError as exc:
            raise InputError(f"{opath}: {exc}") from exc
    return Catalog(orbits)


def load_catalog(filename: str) -> Catalog:
    return catalog_from_data(_load_json(filename), path=filename)


def catalog_to_data(catalog: Catalog) -> dict:
    orbits = []
    for oid in catalog.ids():
        orbit = catalog.orbit(oid)
        if orbit.is_flow:
            model = {"type": "flow", "samples": orbit.model.to_triples()}
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


# --- building (de)serialization -----------------------------------------------


def _puncture_from_data(data, path: str) -> Puncture:
    record = _obj(data, path)
    sign_str = _str(_get(record, "sign", path), f"{path}.sign")
    if sign_str not in ("+", "-"):
        raise InputError(f"{path}.sign: expected '+' or '-'")
    orbit_obj = _obj(_get(record, "orbit", path), f"{path}.orbit")
    orbit = OrbitRef(
        simple=_str(_get(orbit_obj, "simple", f"{path}.orbit"), f"{path}.orbit.simple"),
        k=_int(_get(orbit_obj, "k", f"{path}.orbit"), f"{path}.orbit.k"),
    )
    constraint = _num(record.get("constraint", 0.0), f"{path}.constraint")
    winding = record.get("controlling_winding")
    if winding is not None:
        winding = _int(winding, f"{path}.controlling_winding")
    return Puncture(
        sign=1 if sign_str == "+" else -1,
        orbit=orbit,
        constraint=constraint,
        controlling_winding=winding,
    )


def building_from_data(data, path: str = "building") -> Building:
    root = _obj(data, path)
    _check_format(root, path)
    components = []
    for i, entry in enumerate(_arr(_get(root, "components", path), f"{path}.components")):
        cpath = f"{path}.components[{i}]"
        record = _obj(entry, cpath)
        punctures = tuple(
            _puncture_from_data(p, f"{cpath}.punctures[{j}]")
            for j, p in enumerate(_arr(record.get("punctures", []), f"{cpath}.punctures"))
        )
        wind_pi = record.get("wind_pi")
        if wind_pi is not None:
            wind_pi = _int(wind_pi, f"{cpath}.wind_pi")
        image_class = record.get("image_class")
        if image_class is not None:
            image_class = _str(image_class, f"{cpath}.image_class")
        try:
            components.append(
                Component(
                    id=_str(_get(record, "id", cpath), f"{cpath}.id"),
                    genus=_int(_get(record, "genus", cpath), f"{cpath}.genus"),
                    punctures=punctures,
                    rel_c1=_int(record.get("rel_c1", 0), f"{cpath}.rel_c1"),
                    kind=_str(record.get("kind", "nontrivial"), f"{cpath}.kind"),
                    wind_pi=wind_pi,
                    image_class=image_class,
                )
            )
        except HbcalcError as exc:
            raise InputError(f"{cpath}: {exc}") from exc

    def site(data, spath):
        pair = _arr(data, spath)
        if len(pair) != 2:
            raise InputError(f"{spath}: expected [component id, puncture index]")
        return (_str(pair[0], f"{spath}[0]"), _int(pair[1], f"{spath}[1]"))

    breaking = []
    for i, entry in enumerate(_arr(root.get("breaking_pairs", []), f"{path}.breaking_pairs")):
        ppath = f"{path}.breaking_pairs[{i}]"
        pair = _arr(entry, ppath)
        if len(pair) != 2:
            raise InputError(f"{ppath}: expected [positive site, negative site]")
        breaking.append((site(pair[0], f"{ppath}[0]"), site(pair[1], f"{ppath}[1]")))
    nodal = []
    for i, entry in enumerate(_arr(root.get("nodal_pairs", []), f"{path}.nodal_pairs")):
        npath = f"{path}.nodal_pairs[{i}]"
        pair = _arr(entry, npath)
        if len(pair) != 2:
            raise InputError(f"{npath}: expected [component id, component id]")
        nodal.append((_str(pair[0], f"{npath}[0]"), _str(pair[1], f"{npath}[1]")))
    try:
        return Building(
            components=tuple(components),
            breaking_pairs=tuple(breaking),
            nodal_pairs=tuple(nodal),
        )
    except HbcalcError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_building(filename: str) -> Building:
    return building_from_data(_load_json(filename), path=filename)


def building_to_data(building: Building) -> dict:
    building = building.canonical()
    components = []
    for comp in building.components:
        punctures = []
        for p in comp.punctures:
            record = {
                "sign": "+" if p.sign == 1 else "-",
                "orbit": {"simple": p.orbit.simple, "k": p.orbit.k},
                "constraint": p.constraint,
            }
            if p.controlling_winding is not None:
                record["controlling_winding"] = p.controlling_winding
            punctures.append(record)
        record = {
            "id": comp.id,
            "genus": comp.genus,
            "rel_c1": comp.rel_c1,
            "kind": comp.kind,
            "punctures": punctures,
        }
        if comp.wind_pi is not None:
            record["wind_pi"] = comp.wind_pi
        if comp.image_class is not None:
            record["image_class"] = comp.image_class
        components.append(record)
    return {
        "format": FORMAT_VERSION,
        "components": components,
        "breaking_pairs": [
            [[p[0], p[1]], [n[0], n[1]]] for p, n in building.breaking_pairs
        ],
        "nodal_pairs": [[a, b] for a, b in building.nodal_pairs],
    }


def asymptotics_from_data(data, path: str = "asymptotics") -> Asymptotics:
    root = _obj(data, path)
    _check_format(root, path)
    punctures = tuple(
        _puncture_from_data(p, f"{path}.punctures[{i}]")
        for i, p in enumerate(_arr(_get(root, "punctures", path), f"{path}.punctures"))
    )
    return Asymptotics(
        punctures=punctures,
        rel_c1=_int(root.get("rel_c1", 0), f"{path}.rel_c1"),
    )


def load_asymptotics(filename: str) -> Asymptotics:
    return asymptotics_from_data(_load_json(filename), path=filename)


# --- report rendering ----------------------------------------------------------


def _site_list(sites) -> list:
    return [[s[0], s[1]] for s in sites]


def index_report_to_data(report: IndexReport) -> dict:
    return {
        "chi": report.chi,
        "genus": report.genus,
        "c1_total": report.c1_total,
        "mu_total": report.mu_total,
        "index": report.index,
        "c_N": report.c_n,
        "gamma0": _site_list(report.gamma0),
        "gamma1": _site_list(report.gamma1),
        "per_component": [
            {
                "component": r.component,
                "induced_constraints": [
                    [s[0], s[1], c] for (s, c) in r.induced_constraints
                ],
                "index": r.index,
                "c_N": r.c_n,
                "defect_total": r.defect_total,
                "wind_pi_consistent": r.wind_pi_consistent,
            }
            for r in report.per_component
        ],
    }


def _print_index_report(report: IndexReport) -> None:
    print(f"chi       = {report.chi}")
    print(f"genus     = {report.genus if report.genus is not None else 'n/a (disconnected)'}")
    print(f"c1_total  = {report.c1_total}")
    print(f"mu_total  = {report.mu_total}")
    print(f"index     = {report.index}")
    print(f"c_N       = {report.c_n}")
    print(f"gamma0    = {[f'{c}:{i}' for c, i in report.gamma0]}")
    print(f"gamma1    = {[f'{c}:{i}' for c, i in report.gamma1]}")
    for r in report.per_component:
        defect = "n/a" if r.defect_total is None else str(r.defect_total)
        flag = "ok" if r.wind_pi_consistent else "INCONSISTENT"
        print(
            f"component {r.component}: index={r.index} c_N={r.c_n} "
            f"defect={defect} wind_pi={flag}"
        )


def _violations_data(violations) -> list:
    return [
        {"code": v.code, "location": v.location, "message": v.message}
        for v in violations
    ]


def _print_violations(violations) -> None:
    for v in violations:
        print(f"violation {v.code} at {v.location}: {v.message}")


# --- subcommands -----------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    catalog = load_catalog(args.catalog)
    ref = OrbitRef(args.orbit, args.cover)
    table = catalog.spectrum_of(ref, args.window, args.grid)
    if args.json:
        payload = {
            "format": FORMAT_VERSION,
            "orbit": {"simple": ref.simple, "k": ref.k},
            "window": table.window,
            "grid": table.grid,
            "entries": [[e.eigenvalue, e.winding, e.multiplicity] for e in table.entries],
        }
        sys.stdout.write(_dump_json(payload))
    else:
        print(f"orbit {ref.simple}^{ref.k}  window {table.window}  grid {table.grid}")
        print(f"{'eigenvalue':>18}  {'winding':>7}  {'mult':>4}")
        for e in table.entries:
            print(f"{e.eigenvalue:+18.9f}  {e.winding:>7d}  {e.multiplicity:>4d}")
    return 0


def _cmd_index(args) -> int:
    catalog = load_catalog(args.catalog)
    building = load_building(args.building)
    report = index_report(catalog, building)
    if args.json:
        sys.stdout.write(
            _dump_json({"format": FORMAT_VERSION, "report": index_report_to_data(report)})
        )
    else:
        _print_index_report(report)
    return 0


def _cmd_validate(args) -> int:
    catalog = load_catalog(args.catalog)
    building = load_building(args.building)
    verdict = validate_nice(catalog, building)
    if args.json:
        payload = {
            "format": FORMAT_VERSION,
            "ok": verdict.ok,
            "violations": _violations_data(verdict.violations),
        }
        sys.stdout.write(_dump_json(payload))
    else:
        print("nicely embedded: ok" if verdict.ok else "nicely embedded: violations found")
        _print_violations(verdict.violations)
    return 0 if verdict.ok else 1


def _parse_site(text: str, flag: str):
    head, sep, tail = text.rpartition(":")
    if not sep:
        raise InputError(f"{flag}: expected COMPONENT:PUNCTURE_INDEX, got {text!r}")
    try:
        return (head, int(tail))
    except ValueError:
        raise InputError(f"{flag}: puncture index must be an integer in {text!r}") from None


def _cmd_surgery(args) -> int:
    building = load_building(args.building)
    if args.op == "augment":
        if (args.site is None) == (args.pair is None):
            raise InputError("augment needs exactly one of --site or --pair")
        site = _parse_site(args.site, "--site") if args.site is not None else args.pair
        result = augment(building, site)
    elif args.op == "core":
        result = core(building)
    elif args.op == "node":
        if args.components is None:
            raise InputError("node needs --components A,B")
        parts = args.components.split(",")
        if len(parts) != 2:
            raise InputError("--components: expected exactly two comma-separated ids")
        result = add_node(building, parts[0], parts[1])
    elif args.op == "glue":
        if args.pos is None or args.neg is None:
            raise InputError("glue needs --pos and --neg sites")
        result = glue_punctures(
            building, _parse_site(args.pos, "--pos"), _parse_site(args.neg, "--neg")
        )
    elif args.op == "union":
        if args.other is None:
            raise InputError("union needs --other FILE")
        result = disjoint_union(building, load_building(args.other))
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown surgery op {args.op!r}")
    sys.stdout.write(_dump_json(building_to_data(result)))
    return 0


def _cmd_enumerate(args) -> int:
    catalog = load_catalog(args.catalog)
    asymptotics = load_asymptotics(args.asymptotics)
    limits = enumerate_limits(catalog, asymptotics)
    if args.json:
        payload = {
            "format": FORMAT_VERSION,
            "limits": [
                {
                    "top": list(lt.top),
                    "bottom": list(lt.bottom),
                    "breaking": {"simple": lt.breaking.simple, "k": lt.breaking.k},
                    "index_top": lt.index_top,
                    "index_bottom": lt.index_bottom,
                    "c_N_top": lt.c_n_top,
                    "c_N_bottom": lt.c_n_bottom,
                }
                for lt in limits
            ],
        }
        sys.stdout.write(_dump_json(payload))
    else:
        print(f"{len(limits)} admissible limit type(s)")
        for lt in limits:
            print(
                f"top {list(lt.top)} / bottom {list(lt.bottom)} breaking "
                f"{lt.breaking.simple}^{lt.breaking.k} (side indices 1/1, c_N 0/0)"
            )
    return 0


def _cmd_check(args) -> int:
    if args.theorem != "stable":
        raise InputError(f"unknown theorem {args.theorem!r}")
    catalog = load_catalog(args.catalog)
    building = load_building(args.building)
    verdict = classify_stable_limit(catalog, building)
    if args.json:
        payload = {
            "format": FORMAT_VERSION,
            "kind": verdict.kind,
            "index": verdict.index,
            "violations": _violations_data(verdict.violations),
            "breaking_orbit": (
                None
                if verdict.breaking_orbit is None
                else {"simple": verdict.breaking_orbit.simple, "k": verdict.breaking_orbit.k}
            ),
            "top_component": verdict.top_component,
            "bottom_component": verdict.bottom_component,
        }
        sys.stdout.write(_dump_json(payload))
    else:
        if verdict.ok:
            print(f"verdict: {verdict.kind} (index {verdict.index})")
            if verdict.kind == "BROKEN_PAIR":
                b = verdict.breaking_orbit
                print(
                    f"breaking orbit {b.simple}^{b.k}; top {verdict.top_component}, "
                    f"bottom {verdict.bottom_component}"
                )
        else:
            print(f"verdict: rejected (index {verdict.index})")
            _print_violations(verdict.violations)
    return 0 if verdict.ok else 1


# --- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbcalc",
        description="Spectra, indices and degeneration checks for holomorphic buildings.",
    )
    parser.add_argument("--log-level", default="WARNING", help="python logging level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="windowed spectrum of an orbit cover")
    p.add_argument("--catalog", required=True)
    p.add_argument("--orbit", required=True)
    p.add_argument("--cover", type=int, default=1)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("index", help="index report of a building")
    p.add_argument("--catalog", required=True)
    p.add_argument("--building", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("validate", help="nicely-embedded checks")
    p.add_argument("--catalog", required=True)
    p.add_argument("--building", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("surgery", help="apply a surgery operation, emit the result")
    p.add_argument("--building", required=True)
    p.add_argument("--op", required=True, choices=["augment", "core", "node", "glue", "union"])
    p.add_argument("--site", default=None, help="augment: COMPONENT:PUNCTURE_INDEX")
    p.add_argument("--pair", type=int, default=None, help="augment: breaking pair index")
    p.add_argument("--components", default=None, help="node: A,B")
    p.add_argument("--pos", default=None, help="glue: positive site COMPONENT:INDEX")
    p.add_argument("--neg", default=None, help="glue: negative site COMPONENT:INDEX")
    p.add_argument("--other", default=None, help="union: second building file")
    p.set_defaults(func=_cmd_surgery)

    p = sub.add_parser("enumerate", help="admissible limits of a stable index-2 curve")
    p.add_argument("--catalog", required=True)
    p.add_argument("--asymptotics", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="run a theorem checker")
    p.add_argument("--catalog", required=True)
    p.add_argument("--building", required=True)
    p.add_argument("--theorem", required=True, choices=["stable"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))
    try:
        return args.func(args)
    except (HbcalcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means "verdict with violations", so a crash must not reach it
        log.debug("internal error", exc_info=True)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
